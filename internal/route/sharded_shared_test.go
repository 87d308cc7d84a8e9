package route_test

// The serve path's engine — NewRepairedShardedEngine, the one ftserve and
// the serve benchmark construct — against the pipeline's engine, which
// adopts core.MaskUpdater's incrementally maintained masks and traversal
// bytes. External test package: route cannot import core (core depends on
// route), but the shared-traversal-byte contract is between
// core.MaskUpdater and the engines, so it is exercised here.

import (
	"fmt"
	"testing"

	"ftcsn/internal/core"
	"ftcsn/internal/fault"
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
)

// permutationReqs asks for the full permutation perm (input i → output
// perm[i]).
func permutationReqs(nw *core.Network, seed uint64) []route.Request {
	n := len(nw.Inputs())
	perm := rng.New(seed).Perm(n)
	reqs := make([]route.Request, n)
	for i := range reqs {
		reqs[i] = route.Request{In: nw.Inputs()[i], Out: nw.Outputs()[perm[i]]}
	}
	return reqs
}

// requireSameServing serves reqs on every engine and requires identical
// decisions and paths, request by request. It returns the accept count.
func requireSameServing(t *testing.T, step string, reqs []route.Request, engines map[string]route.Engine) int {
	t.Helper()
	var refName string
	var ref []route.Result
	accepted := 0
	for _, name := range []string{"router", "repaired", "shared"} {
		res := engines[name].ConnectBatch(reqs, nil)
		if ref == nil {
			refName, ref = name, res
			for i := range res {
				if res[i].Path != nil {
					accepted++
				}
			}
			continue
		}
		for i := range reqs {
			a, b := ref[i].Path, res[i].Path
			if (a == nil) != (b == nil) || len(a) != len(b) {
				t.Fatalf("%s: request %d (%d->%d): %s %v vs %s %v",
					step, i, reqs[i].In, reqs[i].Out, refName, a, name, b)
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("%s: request %d: paths diverge at hop %d: %s %v vs %s %v",
						step, i, j, refName, a, name, b)
				}
			}
		}
	}
	return accepted
}

// TestShardedEngineSharedMasksMatchRepaired: a sharded engine that adopts
// core.MaskUpdater's masks must serve a permutation exactly like one that
// derived the repaired network itself from the fault instance
// (NewRepairedShardedEngine) and like the reference NewRepairedRouter.
func TestShardedEngineSharedMasksMatchRepaired(t *testing.T) {
	nw, err := core.Build(core.DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.01, 0.05} {
		inst := fault.NewInstance(nw.G)
		fault.InjectInto(inst, fault.Symmetric(eps), rng.New(11))
		mu := core.NewMaskUpdater(nw.G)
		var m core.Masks
		mu.Init(inst, &m)
		for _, shards := range []int{1, 4} {
			shared := route.NewShardedEngine(nw.G, shards)
			shared.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)
			repaired := route.NewRepairedShardedEngine(inst, shards)
			engines := map[string]route.Engine{
				"router":   route.NewRepairedRouter(inst),
				"repaired": repaired,
				"shared":   shared,
			}
			step := fmt.Sprintf("eps=%v shards=%d", eps, shards)
			if requireSameServing(t, step, permutationReqs(nw, 12), engines) == 0 {
				t.Fatalf("%s: nothing accepted", step)
			}
			for name, eng := range engines {
				if se, ok := eng.(*route.ShardedEngine); ok {
					if err := se.VerifyState(); err != nil {
						t.Fatalf("%s: %s: %v", step, name, err)
					}
				}
			}
			shared.Close()
			repaired.Close()
		}
	}
}

// TestShardedEngineSharedMasksTrackUpdates: the adopted slices are shared,
// so after an incremental MaskUpdater.Apply (a fault) or Revert (a heal)
// plus the MasksChangedDiff notification the engine must serve exactly
// like engines built afresh from the updated fault instance — and never
// through a discarded vertex. The heal step is the sharp one: a guide
// refreshed on the fault but not on the heal would prune the healed vertex
// as hopeless.
func TestShardedEngineSharedMasksTrackUpdates(t *testing.T) {
	nw, err := core.Build(core.DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	inst := fault.NewInstance(nw.G)
	mu := core.NewMaskUpdater(nw.G)
	var m core.Masks
	mu.Init(inst, &m)
	const shards = 4
	shared := route.NewShardedEngine(nw.G, shards)
	defer shared.Close()
	shared.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)

	reqs := permutationReqs(nw, 13)
	res := shared.ConnectBatch(reqs, nil)
	if res[0].Path == nil {
		t.Fatal("fault-free connect failed")
	}

	// Fail every switch out of the first circuit's second vertex: the
	// updater recomputes the masks and traversal bytes in place.
	victim := res[0].Path[1]
	var diff []fault.DiffEntry
	for _, e := range nw.G.OutEdges(victim) {
		diff = append(diff, fault.DiffEntry{Edge: e, Old: inst.Edge[e], New: fault.Open})
		inst.SetState(e, fault.Open)
	}
	check := func(step string, edges []int32, wantVictim bool) {
		t.Helper()
		shared.Reset()
		shared.MasksChangedDiff(mu.ChangedVertices(), edges)
		repaired := route.NewRepairedShardedEngine(inst, shards)
		defer repaired.Close()
		engines := map[string]route.Engine{
			"router":   route.NewRepairedRouter(inst),
			"repaired": repaired,
			"shared":   shared,
		}
		if requireSameServing(t, step, reqs, engines) == 0 {
			t.Fatalf("%s: nothing accepted", step)
		}
		sawVictim := false
		for i := range reqs {
			for _, v := range shared.PathOf(reqs[i].In, reqs[i].Out) {
				sawVictim = sawVictim || v == victim
			}
		}
		if sawVictim != wantVictim {
			t.Fatalf("%s: some path passes through vertex %d = %v, want %v", step, victim, sawVictim, wantVictim)
		}
		if err := shared.VerifyState(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	check("after Apply", mu.Apply(inst, &m, diff), false)
	check("after Revert", mu.Revert(inst, &m, diff), true)
}
