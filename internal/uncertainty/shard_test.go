package uncertainty

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/guard"
)

// shardModel is a cheap nonlinear model for shard tests.
func shardModel(params map[string]float64) (float64, error) {
	lam, mu := params["lambda"], params["mu"]
	return mu / (mu + lam), nil
}

func shardParams(t *testing.T) []Param {
	t.Helper()
	lam, err := dist.NewLognormal(math.Log(0.01), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	mu, err := dist.NewGamma(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return []Param{{Name: "lambda", Dist: lam}, {Name: "mu", Dist: mu}}
}

func runSweep(t *testing.T, seed uint64, shards, size int, order []int) *SweepResult {
	t.Helper()
	params := shardParams(t)
	states := make([]*ShardState, shards)
	for _, i := range order {
		st, err := RunShard(context.Background(), shardModel, params, ShardPlan{
			Index: i, Size: size, Seed: seed, Quantiles: []float64{0.05, 0.5, 0.95},
		})
		if err != nil {
			t.Fatal(err)
		}
		states[i] = st
	}
	res, err := FoldShards(states)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShardFoldOrderIndependence is the core determinism contract: the
// folded result is bit-identical no matter which order the shards were
// computed in (workers, retries, and crash-resume only change that
// order).
func TestShardFoldOrderIndependence(t *testing.T) {
	const shards, size = 8, 400
	forward := runSweep(t, 42, shards, size, []int{0, 1, 2, 3, 4, 5, 6, 7})
	scrambled := runSweep(t, 42, shards, size, []int{5, 0, 7, 3, 1, 6, 2, 4})
	if math.Float64bits(forward.Mean) != math.Float64bits(scrambled.Mean) ||
		math.Float64bits(forward.StdDev) != math.Float64bits(scrambled.StdDev) {
		t.Fatalf("moments depend on execution order: %+v vs %+v", forward, scrambled)
	}
	for i := range forward.Quantiles {
		a, b := forward.Quantiles[i], scrambled.Quantiles[i]
		if math.Float64bits(a.Value) != math.Float64bits(b.Value) {
			t.Fatalf("quantile p=%g depends on execution order: %v vs %v", a.P, a.Value, b.Value)
		}
	}
}

// TestShardReplayBitIdentical re-runs one shard and demands an identical
// serialized state — the property the job engine's retry and resume
// paths rely on.
func TestShardReplayBitIdentical(t *testing.T) {
	params := shardParams(t)
	plan := ShardPlan{Index: 3, Size: 500, Seed: 99, Quantiles: []float64{0.5, 0.95}}
	a, err := RunShard(context.Background(), shardModel, params, plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunShard(context.Background(), shardModel, params, plan)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("replayed shard differs:\n%s\n%s", ja, jb)
	}
}

func TestShardStateJSONRoundTrip(t *testing.T) {
	params := shardParams(t)
	st, err := RunShard(context.Background(), shardModel, params, ShardPlan{
		Index: 0, Size: 250, Seed: 7, Quantiles: []float64{0.05, 0.5, 0.95},
	})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back ShardState
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	blob2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatalf("shard state not byte-stable across JSON round trip:\n%s\n%s", blob, blob2)
	}
}

func TestShardQuantilesNearExact(t *testing.T) {
	// One big fold against the sequential Propagate over the same model
	// family: sharded quantiles must land close to exact sample quantiles.
	res := runSweep(t, 1234, 20, 1000, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19})
	if res.N != 20000 {
		t.Fatalf("N = %d, want 20000", res.N)
	}
	med, err := res.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if med <= res.Min || med >= res.Max {
		t.Fatalf("median %g outside observed range [%g, %g]", med, res.Min, res.Max)
	}
	lo, _ := res.Quantile(0.05)
	hi, _ := res.Quantile(0.95)
	if !(lo < med && med < hi) {
		t.Fatalf("quantiles not ordered: %g, %g, %g", lo, med, hi)
	}
	if _, err := res.Quantile(0.25); !errors.Is(err, ErrBadPercentile) {
		t.Fatalf("untracked quantile: got %v, want ErrBadPercentile", err)
	}
}

func TestRunShardInterrupt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunShard(ctx, shardModel, shardParams(t), ShardPlan{
		Index: 0, Size: 100, Seed: 1, Quantiles: []float64{0.5},
	})
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("canceled shard: got %v, want guard.ErrCanceled", err)
	}
}

func TestFoldShardsRejectsGapsAndDuplicates(t *testing.T) {
	params := shardParams(t)
	mk := func(i int) *ShardState {
		st, err := RunShard(context.Background(), shardModel, params, ShardPlan{
			Index: i, Size: 50, Seed: 5, Quantiles: []float64{0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if _, err := FoldShards(nil); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("empty fold: got %v, want ErrNoSamples", err)
	}
	if _, err := FoldShards([]*ShardState{mk(0), nil, mk(2)}); err == nil {
		t.Fatal("fold with a missing shard succeeded")
	}
	if _, err := FoldShards([]*ShardState{mk(0), mk(0)}); err == nil {
		t.Fatal("fold with a duplicated index succeeded")
	}
}

// TestShardRNGKnownAnswer pins the shard stream bit-for-bit: resumed
// sweeps (and E15) replay shards from their seeds, so any change to the
// generator silently breaks every checkpoint on disk.
func TestShardRNGKnownAnswer(t *testing.T) {
	r := ShardRNG(42, 0)
	for i, want := range []uint64{0xfc991bca1a1aa1ae, 0xbdc7d5e024e5780f, 0x126b7212c13d5e99, 0x1396e37180ee2cb} {
		if got := r.Uint64(); got != want {
			t.Fatalf("ShardRNG(42,0) draw %d = %#x, want %#x", i, got, want)
		}
	}
}
