package privim

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// paramHash is FNV-1a over every parameter's IEEE bit patterns in
// registration order.
func paramHash(r *Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range r.Model.Params.All() {
		for _, v := range p.Value.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestTrainGolden pins a short privim* run bit for bit: the calibrated
// σ, the ε spent, every trained parameter and the selected seeds. The
// same pins must hold under a cancelable context that never fires, so
// the cancelable and uncancelable DP-SGD paths cannot drift apart.
func TestTrainGolden(t *testing.T) {
	const (
		wantSigma   = uint64(0x3fe4618e40c75407)
		wantEpsilon = uint64(0x400ffe53dba79ede)
		wantParams  = uint64(0x796c685538ad560f)
	)
	wantSeeds := []int{161, 83, 90, 112, 192}
	ds := quickDataset(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for name, ctx := range map[string]context.Context{"background": context.Background(), "cancelable": ctx} {
		t.Run(name, func(t *testing.T) {
			res, err := TrainContext(ctx, ds.Graph, quickConfig(ModeDual))
			if err != nil {
				t.Fatal(err)
			}
			seeds := res.SelectSeeds(ds.Graph, 5)
			if got := math.Float64bits(res.Sigma); got != wantSigma {
				t.Errorf("σ bits %#016x, want %#016x", got, wantSigma)
			}
			if got := math.Float64bits(res.EpsilonSpent); got != wantEpsilon {
				t.Errorf("ε spent bits %#016x, want %#016x", got, wantEpsilon)
			}
			if got := paramHash(res); got != wantParams {
				t.Errorf("parameter hash %#016x, want %#016x", got, wantParams)
			}
			if len(seeds) != len(wantSeeds) {
				t.Fatalf("seeds %v, want %v", seeds, wantSeeds)
			}
			for i := range seeds {
				if int(seeds[i]) != wantSeeds[i] {
					t.Fatalf("seeds %v, want %v", seeds, wantSeeds)
				}
			}
		})
	}
}
