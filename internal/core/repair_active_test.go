package core

// Active-set conformance for the repair layer: running the §3.2 phases
// over a region with the engine restricted to that region (only region
// nodes stepped) must be bit-identical — matching, rounds, messages,
// bits, per-round profile — to the full sweep in which frozen nodes step
// idly through every round, across topologies × worker counts × repair
// forms (the flat repairer and its blocking reference). This is the
// contract internal/dynamic's Maintainer relies on for every incremental
// Apply.

import (
	"fmt"
	"reflect"
	"testing"

	"distmatch/internal/dist"
	"distmatch/internal/gen"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
)

// growBall grows a hop ball around seed over live edges with a mate
// closure — a test-local twin of the Maintainer's region policy.
func growBall(r *dist.Runner, matchedEdge []int32, seed int32, hops int) []int32 {
	r.SetActive([]int32{seed})
	r.ExpandByHops(hops)
	members := r.ActiveNodes()
	g := r.Graph()
	for _, v := range members {
		if me := matchedEdge[v]; me >= 0 {
			r.ActivateNode(g.Other(int(me), int(v)))
		}
	}
	return append([]int32(nil), r.ActiveNodes()...)
}

// TestRepairActiveSetConformance drives two repair stages (empty-start
// augmentation, then a second repair of a fresh region warm from the
// first result) on every topology × worker count, comparing the
// full-sweep repairer slot for slot against the active-set repairer and
// against the blocking reference (repairBipartiteCoroutine) in both
// schedules.
func TestRepairActiveSetConformance(t *testing.T) {
	tops := map[string]*graph.Graph{
		"gnp":   gen.BipartiteGnp(rng.New(71), 18, 16, 0.2),
		"dense": gen.BipartiteGnp(rng.New(72), 10, 10, 0.5),
		"path":  gen.Path(23),
	}
	for name, g := range tops {
		if g.M() == 0 {
			continue
		}
		n := g.N()
		for _, k := range []int{2, 3} {
			for _, workers := range []int{1, 3} {
				runRepairs := func(active, reference bool) ([]int32, []*dist.Stats) {
					r := dist.NewRunner(g, dist.Config{Workers: workers, Profile: true})
					defer r.Close()
					matched := make([]int32, n)
					for v := range matched {
						matched[v] = -1
					}
					opts := RepairOptions{K: k, Oracle: true}
					br := NewBipartiteRepairer(r, matched, opts)
					repair := func(seed uint64, region []bool) *dist.Stats {
						if reference {
							return repairBipartiteCoroutine(r, seed, matched, region, opts)
						}
						return br.Repair(seed, region)
					}
					var sts []*dist.Stats
					for stage, seed := range []int32{0, int32(n / 2)} {
						ids := growBall(r, matched, seed, 2*k-1)
						region := make([]bool, n)
						for _, v := range ids {
							region[v] = true
						}
						if active {
							// Engine schedule = region: the Runner's
							// active set is already the grown ball.
							sts = append(sts, repair(uint64(100+stage), r.ActiveMask()))
						} else {
							r.ClearActive()
							sts = append(sts, repair(uint64(100+stage), region))
						}
					}
					return matched, sts
				}
				fullM, fullSt := runRepairs(false, false)
				for _, form := range []struct {
					label             string
					active, reference bool
				}{
					{"active", true, false},
					{"reference", false, true},
					{"reference/active", true, true},
				} {
					label := fmt.Sprintf("%s k=%d w=%d %s", name, k, workers, form.label)
					gotM, gotSt := runRepairs(form.active, form.reference)
					if !reflect.DeepEqual(fullM, gotM) {
						t.Fatalf("%s: matchings diverge\nfull %v\ngot  %v", label, fullM, gotM)
					}
					for i := range fullSt {
						if fullSt[i].Rounds != gotSt[i].Rounds || fullSt[i].Messages != gotSt[i].Messages ||
							fullSt[i].Bits != gotSt[i].Bits {
							t.Fatalf("%s stage %d: stats diverge: full %v vs %v", label, i, fullSt[i], gotSt[i])
						}
						if !reflect.DeepEqual(fullSt[i].Profile, gotSt[i].Profile) {
							t.Fatalf("%s stage %d: profiles diverge", label, i)
						}
						if form.active && gotSt[i].NodeRounds > fullSt[i].NodeRounds {
							t.Fatalf("%s stage %d: active swept more than full (%d > %d)",
								label, i, gotSt[i].NodeRounds, fullSt[i].NodeRounds)
						}
					}
				}
			}
		}
	}
}

// TestRepairActiveNodeRoundsScaleWithRegion pins the point of the
// feature: on a large sparse slab, a small-region repair's sweep work
// under active-set execution is a small fraction of the full-sweep
// equivalent (which steps all n nodes every round).
func TestRepairActiveNodeRoundsScaleWithRegion(t *testing.T) {
	g := gen.BipartiteRegular(rng.New(3), 256, 3) // 512 nodes, degree 3
	n := g.N()
	k := 2
	run := func(active bool) (*dist.Stats, int) {
		r := dist.NewRunner(g, dist.Config{})
		defer r.Close()
		matched := make([]int32, n)
		for v := range matched {
			matched[v] = -1
		}
		ids := growBall(r, matched, 0, 2*k-1)
		region := make([]bool, n)
		for _, v := range ids {
			region[v] = true
		}
		if !active {
			r.ClearActive()
		}
		st := RepairBipartite(r, 9, matched, regionArg(active, r, region), RepairOptions{K: k, Oracle: true})
		return st, len(ids)
	}
	fullSt, _ := run(false)
	actSt, region := run(true)
	if region >= n/4 {
		t.Fatalf("test premise broken: region %d not small vs n=%d", region, n)
	}
	if fullSt.Rounds != actSt.Rounds || fullSt.Messages != actSt.Messages {
		t.Fatalf("conformance broke: %v vs %v", fullSt, actSt)
	}
	if want := int64(region) * int64(actSt.Rounds+1); actSt.NodeRounds != want {
		t.Fatalf("active NodeRounds = %d, want %d", actSt.NodeRounds, want)
	}
	if actSt.NodeRounds*4 > fullSt.NodeRounds {
		t.Fatalf("active sweep work %d not ≪ full %d (region %d of %d nodes)",
			actSt.NodeRounds, fullSt.NodeRounds, region, n)
	}
}

func regionArg(active bool, r *dist.Runner, region []bool) []bool {
	if active {
		return r.ActiveMask()
	}
	return region
}
