// Package shard serves an approximate matching from a pool of
// independent dynamic.Maintainers, one per shard, and keeps serving
// through the loss of any of them.
//
// The slab is partitioned side-aware: each bipartition side is split
// into contiguous blocks of nearly equal size, and shard s owns block s
// of each side. An edge whose endpoints land in the same shard is
// internal — it lives in that shard's private sub-slab, maintained by
// the shard's own Maintainer on its own dist.Runner — while an edge that
// crosses shards is pool-owned: the pool mirrors its liveness and
// resolves it outside the per-shard machinery. This is the two-phase
// partition-local / conflict-resolution split of the k-party
// communication model (Huang et al., arXiv:1704.08462): phase one is
// embarrassingly parallel per-shard maintenance touching no cross-shard
// state, phase two a bounded resolution pass over the crossing edges
// whose cost is the pool's entire communication budget.
//
// Every Apply routes its batch to the owning shards (each shard sees its
// restriction of the batch, in order, as one atomic local batch),
// applies all shard batches in parallel, then recomposes the global
// matching: shard matchings are authoritative on internal edges, and a
// deterministic greedy pass (ascending edge id) matches free-free
// crossing edges. A crossing match lasts while its edge is live: each
// shard pins its crossing-matched nodes (Maintainer.SetPinned), the
// k-party rule that a party treats a vertex the coordinator matched
// across the boundary as taken, so shard repairs never rematch them
// internally. Only a Degraded shard, whose pins are not synced while it
// serves its last-good snapshot, can still claim such a node; once it
// serves its own matching again the shard's match wins and the crossing
// match dissolves. A periodic pool audit certifies the composed matching
// with the sequential Berge probe (check.SequentialProbe) on the pool's
// own mirror: the pool is the coordinator of the split and holds the
// whole liveness mask and composed matching, so it runs one alternating
// BFS instead of simulating the distributed protocol. A failed
// certificate triggers the bounded conflict-resolution repair, confined
// to the probe's witness region — the nodes of the short augmenting
// paths, closed under mates — on the resolver Runner, with a re-probe
// and, only if that still fails, a warm full repair of the composed
// matching. The result is pushed back into the shards
// (Maintainer.Adopt), re-entering them into their own
// Recovering-until-audited ladder. With the pins synced first, the
// pushed-back restriction certifies inside the shard and stays put.
//
// The robustness layer is the supervisor: it consumes each Maintainer's
// Health after every Apply and asserts dynamic.ValidTransition (a shard
// observed skipping certification is treated as corrupt and rebuilt),
// fences Degraded shards behind the snapshots they already serve, and
// handles killed or crashed shards by freeing them (Runner slabs
// recycle through the process-wide pool) and cold-rebuilding from the
// pool's authoritative mirror — liveness, weights and the last composed
// matching — after a capped exponential backoff counted in Apply slots,
// so every kill/restart schedule replays bit-identically from its seed.
// While a shard is down its nodes' matches are frozen in the composed
// matching (scrubbed on delete, so never stale-invalid), and queries
// keep answering from the surviving shards with explicit staleness and
// degradation flags instead of failing.
package shard
