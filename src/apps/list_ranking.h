// Deterministic list ranking — the flagship consumer of maximal matching
// in the literature the paper sits in (its references [1,7] are list
// ranking papers, and the abstract's symmetry-breaking is exactly what a
// deterministic ranking algorithm needs).
//
// rank[v] = number of nodes after v in list order.
//
// Two algorithms:
//
//   wyllie_ranking       — pointer jumping [16]: O(log n) steps, O(n log n)
//                          work; the classic non-optimal baseline.
//   contraction_ranking  — the matching-contraction kernel of
//                          list_prefix.h over unit weights under +: each
//                          round a maximal matching (any of Match1–4)
//                          picks node-disjoint pointers whose heads are
//                          spliced out, their weight folded into the
//                          tail. The kernel's exclusive prefix is the
//                          distance from the head, and the rank is
//                          (n−1) minus it. One-of-three gives O(log n)
//                          rounds; with Match4 the per-round work is
//                          O(n_cur), so O(n) work in total up to the
//                          O(log n) additive terms — the deterministic-
//                          coin-tossing route to near-optimal ranking
//                          (full optimality needs Anderson–Miller [1]
//                          load balancing, out of scope; E12 quantifies
//                          the gap).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "apps/list_prefix.h"
#include "list/linked_list.h"
#include "pram/arena.h"
#include "pram/prefix.h"
#include "pram/sweep.h"

namespace llmp::apps {

struct RankingResult {
  std::vector<std::uint64_t> rank;  ///< rank[v] = weighted distance to tail
  int rounds = 0;                   ///< contraction rounds / jump rounds
  pram::Stats cost;
};

/// Wyllie's pointer jumping. O(log n) steps of n processors.
template <class Exec>
RankingResult wyllie_ranking(Exec& exec, const list::LinkedList& list) {
  RankingResult r;
  const std::size_t n = list.size();
  const pram::Stats start = exec.stats();
  const auto& next_arr = list.next_array();

  // rank is moved into the result, so it (and its swap partner below)
  // stays a plain vector rather than an arena lease.
  std::vector<std::uint64_t> rank(n);
  if constexpr (pram::has_sweep_v<Exec>) {
    if (pram::tuning().fused) {
      // The fused rounds jump through interleaved {successor, rank} pairs:
      // the random access at jn[v] then costs ONE cache line instead of
      // two (separate nxt/rank arrays), and ranks travel as uint32 — they
      // are list distances < n, and index_t caps n below 2^32 — halving
      // the streamed traffic. The final round widens straight into the
      // public uint64 ranks, so results are bit-identical to the legacy
      // per-element rounds.
      struct JumpPair {
        index_t s;
        std::uint32_t r;
      };
      constexpr std::size_t dist = pram::kPrefetchDistance;
      auto pairs_h = pram::scratch<JumpPair>(exec, n);
      auto pairs2_h = pram::scratch<JumpPair>(exec, n);
      JumpPair* cur = (*pairs_h).data();
      JumpPair* nxt_buf = (*pairs2_h).data();
      {
        const index_t* na = next_arr.data();
        JumpPair* out = cur;
        exec.sweep(n, 1, [=](std::size_t lo, std::size_t hi) {
          for (std::size_t v = lo; v < hi; ++v) {
            const index_t s = na[v];
            out[v] = {s, s == knil ? 0u : 1u};
          }
        });
      }
      std::uint64_t* rk64 = rank.data();
      for (std::size_t span = 1; span < n; span <<= 1) {
        const bool last = (span << 1) >= n;
        const JumpPair* jn = cur;
        if (!last) {
          JumpPair* out = nxt_buf;
          exec.sweep(n, 1, [=](std::size_t lo, std::size_t hi) {
            for (std::size_t v = lo; v < hi; ++v) {
              if (v + dist < hi) {
                const index_t pf = jn[v + dist].s;
                if (pf != knil) pram::prefetch_ro(jn + pf);
              }
              const JumpPair p = jn[v];
              out[v] = p.s == knil ? p
                                   : JumpPair{jn[p.s].s, p.r + jn[p.s].r};
            }
          });
          std::swap(cur, nxt_buf);
        } else {
          // Last doubling: only the ranks are ever read again, so write
          // them wide and skip the dead successor column.
          exec.sweep(n, 1, [=](std::size_t lo, std::size_t hi) {
            for (std::size_t v = lo; v < hi; ++v) {
              if (v + dist < hi) {
                const index_t pf = jn[v + dist].s;
                if (pf != knil) pram::prefetch_ro(jn + pf);
              }
              const JumpPair p = jn[v];
              rk64[v] = p.s == knil
                            ? p.r
                            : std::uint64_t{p.r} + jn[p.s].r;
            }
          });
        }
        ++r.rounds;
      }
      if (n == 1) rank[0] = cur[0].r;  // no doubling round ran
      r.rank = std::move(rank);
      r.cost = exec.stats() - start;
      return r;
    }
  }
  auto nxt_h = pram::scratch<index_t>(exec, n);
  auto nxt2_h = pram::scratch<index_t>(exec, n);
  std::vector<index_t>& nxt = *nxt_h;
  std::vector<index_t>& nxt2 = *nxt2_h;
  std::vector<std::uint64_t> rank2(n);
  exec.step(n, [&](std::size_t v, auto&& m) {
    const index_t s = m.rd(next_arr, v);
    m.wr(nxt, v, s);
    m.wr(rank, v, std::uint64_t{s == knil ? 0u : 1u});
  });
  for (std::size_t span = 1; span < n; span <<= 1) {
    exec.step(n, [&](std::size_t v, auto&& m) {
      const index_t s = m.rd(nxt, v);
      if (s == knil) {
        m.wr(rank2, v, m.rd(rank, v));
        m.wr(nxt2, v, knil);
        return;
      }
      m.wr(rank2, v, m.rd(rank, v) + m.rd(rank, static_cast<std::size_t>(s)));
      m.wr(nxt2, v, m.rd(nxt, static_cast<std::size_t>(s)));
    });
    rank.swap(rank2);
    nxt.swap(nxt2);
    ++r.rounds;
  }
  r.rank = std::move(rank);
  r.cost = exec.stats() - start;
  return r;
}

/// Matching-contraction ranking (see header comment).
template <class Exec>
RankingResult contraction_ranking(Exec& exec, const list::LinkedList& list,
                                  const ContractionOptions& opt = {}) {
  RankingResult result;
  const std::size_t n = list.size();
  const pram::Stats start = exec.stats();

  auto dist_h = pram::scratch<std::uint64_t>(exec, n);
  std::vector<std::uint64_t>& dist = *dist_h;
  exec.step(n, [&](std::size_t v, auto&& m) {
    m.wr(dist, v, std::uint64_t{1});
  });
  auto h_h = pram::scratch<std::uint64_t>(exec, n);
  std::vector<std::uint64_t>& h = *h_h;  // distance from the head
  result.rounds = detail::contract<SumMonoid>(exec, list, dist, h, opt);

  result.rank.assign(n, 0);
  const std::uint64_t total = static_cast<std::uint64_t>(n) - 1;
  exec.step(n, [&](std::size_t v, auto&& mm) {
    mm.wr(result.rank, v, total - mm.rd(h, v));
  });
  result.cost = exec.stats() - start;
  return result;
}

/// Sequential oracle, Θ(n): one ruler-segmented walk (list/ruler_walk.h)
/// leaves each node's segment and distance from its ruler, and one
/// streaming pass turns them into ranks once the segments are ordered.
std::vector<std::uint64_t> sequential_ranking(const list::LinkedList& list);

}  // namespace llmp::apps
