package israeliitai

import (
	"reflect"
	"testing"

	"distmatch/internal/dist"
	"distmatch/internal/gen"
	"distmatch/internal/rng"
)

// TestRunSeedsMatchesRun proves the batch sweep is bit-identical to
// independent runs at several worker counts.
func TestRunSeedsMatchesRun(t *testing.T) {
	g := gen.Gnm(rng.New(91), 120, 360)
	seeds := []uint64{3, 1, 4, 1, 5, 9} // repeats on purpose
	for _, oracle := range []bool{true, false} {
		for _, workers := range []int{1, 4} {
			cfg := dist.Config{Workers: workers, Profile: true}
			ms, sts := RunSeeds(g, cfg, seeds, oracle)
			for i, seed := range seeds {
				scfg := cfg
				scfg.Seed = seed
				wm, wst := RunWithConfig(g, scfg, oracle)
				if !reflect.DeepEqual(wm.Edges(g), ms[i].Edges(g)) {
					t.Fatalf("workers=%d seed=%d: matchings differ", workers, seed)
				}
				if wst.Rounds != sts[i].Rounds || wst.Messages != sts[i].Messages ||
					wst.Bits != sts[i].Bits || wst.OracleCalls != sts[i].OracleCalls {
					t.Fatalf("workers=%d seed=%d: stats differ: %v vs %v", workers, seed, wst, sts[i])
				}
				if !reflect.DeepEqual(wst.Profile, sts[i].Profile) {
					t.Fatalf("workers=%d seed=%d: profiles differ", workers, seed)
				}
			}
		}
	}
}
