package chaos

import (
	"reflect"
	"strings"
	"testing"
)

const shardChaosSchedules = 40

// TestShardChaosSchedules is the shard-level acceptance sweep: across
// the seeded table no slot ever serves an invalid or wrongly-flagged
// composed matching, killing shards mid-batch never empties the global
// answer while healthy shards hold matches, and every schedule
// re-converges to every-shard-Healthy with a certified (1−1/K) composed
// matching. The aggregate counters guard against the table rotting into
// a no-op: the schedules really did kill shards, rebuild them, arm
// shard faults and degrade serving.
func TestShardChaosSchedules(t *testing.T) {
	seeds, replay := chaosSeeds(t, shardChaosSchedules)
	var kills, restarts, armed, degraded, down, stale int
	for _, seed := range seeds {
		res, err := RunShards(ShardConfig{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d (replay: DISTMATCH_FUZZ_SEED=%d go test -run TestShardChaos ./internal/chaos/): %v",
				seed, seed, err)
		}
		if !res.Converged {
			t.Fatalf("seed %d: nil error but not converged: %+v", seed, res)
		}
		kills += res.Totals.Kills
		restarts += res.Totals.Restarts
		armed += res.Armed
		degraded += res.DegradedSlots
		down += res.DownSlots
		stale += res.StaleSlots
	}
	if replay {
		return
	}
	if kills == 0 || restarts == 0 || armed == 0 || degraded == 0 || down == 0 {
		t.Fatalf("shard chaos table exercised nothing: kills=%d restarts=%d armed=%d degraded=%d down=%d stale=%d",
			kills, restarts, armed, degraded, down, stale)
	}
	t.Logf("shard chaos table: %d schedules, %d kills, %d restarts, %d arms, %d degraded slots, %d down, %d stale",
		len(seeds), kills, restarts, armed, degraded, down, stale)
}

// TestShardChaosReplaysIdentically pins that a shard schedule is a pure
// function of its seed — the bit-identical kill/restart replay the
// acceptance criteria demand.
func TestShardChaosReplaysIdentically(t *testing.T) {
	for _, seed := range []uint64{2, 19} {
		a, errA := RunShards(ShardConfig{Seed: seed})
		b, errB := RunShards(ShardConfig{Seed: seed})
		if errA != nil || errB != nil {
			t.Fatalf("seed %d: %v / %v", seed, errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: replay diverges\nfirst  %+v\nsecond %+v", seed, a, b)
		}
	}
}

// TestShardChaosEventTrace pins that a schedule that kills shards leaves
// a structured trace behind: the telemetry events carry the deterministic
// slot clock, so the supervisor's actions must be visible as shard_kill /
// shard_restart records (bit-identity across replays is covered by the
// DeepEqual tests above, which now compare the trace too).
func TestShardChaosEventTrace(t *testing.T) {
	seeds, _ := chaosSeeds(t, 12)
	for _, seed := range seeds {
		res, err := RunShards(ShardConfig{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Totals.Kills == 0 {
			continue
		}
		var kills, restarts bool
		for _, ev := range res.Events {
			if strings.Contains(ev, " shard_kill ") {
				kills = true
			}
			if strings.Contains(ev, " shard_restart ") {
				restarts = true
			}
		}
		if !kills || !restarts {
			t.Fatalf("seed %d: %d kills but trace lacks records (kill=%v restart=%v):\n%s",
				seed, res.Totals.Kills, kills, restarts, strings.Join(res.Events, "\n"))
		}
		return // one killing schedule is enough
	}
	t.Fatal("no schedule in the sample killed a shard; widen the sample")
}

// TestShardChaosSerialBitIdentical replays shard schedules with the
// pool's per-shard commit pipelines disabled (Serial: inline commits and
// full recompose rescans — the pre-pipeline write path) and demands the
// full ShardResult, event trace included, stay bit-identical to the
// pipelined run: the chaos-scale differential oracle for the PR-10
// pipeline rewrite.
func TestShardChaosSerialBitIdentical(t *testing.T) {
	seeds, _ := chaosSeeds(t, 8)
	for _, seed := range seeds {
		base, err := RunShards(ShardConfig{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := RunShards(ShardConfig{Seed: seed, Serial: true})
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("seed %d: serial diverges from pipelined\npipelined %+v\nserial    %+v",
				seed, base, got)
		}
	}
}

// TestShardChaosWorkersBitIdentical replays shard schedules on the
// default worker count and on 4 workers: the worker count is an
// execution detail, so the full ShardResult — slot-by-slot history
// included — must be bit-identical.
func TestShardChaosWorkersBitIdentical(t *testing.T) {
	seeds, _ := chaosSeeds(t, 8)
	for _, seed := range seeds {
		base, err := RunShards(ShardConfig{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := RunShards(ShardConfig{Seed: seed, Workers: 4})
		if err != nil {
			t.Fatalf("seed %d workers=4: %v", seed, err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("seed %d: workers=4 diverges from the default\nbase %+v\ngot  %+v", seed, base, got)
		}
	}
}
