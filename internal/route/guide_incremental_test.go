package route_test

// Differential, fuzz, and allocation coverage for the incrementally
// maintained output-reachability guide (ShardedEngine.MasksChangedDiff,
// and MasksDamaged's fault-free snapshot + damage cone): after every
// fault diff, revert, damage stamp, and interleaved churn step, the guide
// words must be bit-identical to a full rebuild's, and the engine's
// decisions and paths bit-identical to the sequential Router's, across
// the topology zoo and several fault seeds. External test package: the realistic
// diff source is core.MaskUpdater, and core depends on route.

import (
	"fmt"
	"testing"

	"ftcsn/internal/benes"
	"ftcsn/internal/circulant"
	"ftcsn/internal/core"
	"ftcsn/internal/fault"
	"ftcsn/internal/graph"
	"ftcsn/internal/hammock"
	"ftcsn/internal/hyperx"
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
	"ftcsn/internal/superconc"
)

type guideFamily struct {
	name string
	g    *graph.Graph
}

// guideZoo builds the same topology spread E14 measures — the paper's 𝒩,
// its mirror image, a hammock-substituted Beneš, a superconcentrator, and
// the DAG-unrolled hyperx and circulant — every leveled shape the guide
// has to survive (identity and permuted sweeps alike).
func guideZoo(t testing.TB) []guideFamily {
	t.Helper()
	var fams []guideFamily
	nw, err := core.Build(core.DefaultParams(1))
	if err != nil {
		t.Fatal(err)
	}
	fams = append(fams, guideFamily{"network-N", nw.G})
	fams = append(fams, guideFamily{"mirror-N", nw.G.Mirror()})
	bn, err := benes.New(3)
	if err != nil {
		t.Fatal(err)
	}
	fams = append(fams, guideFamily{"benes-hammock", hammock.SubstituteEdges(bn.G, 2, 2, false)})
	sc, err := superconc.New(24, 3, 0xE14)
	if err != nil {
		t.Fatal(err)
	}
	fams = append(fams, guideFamily{"superconcentrator", sc.G})
	hx, err := hyperx.New([]int{3, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	fams = append(fams, guideFamily{"hyperx", hx.G})
	cc, err := circulant.New(8, []int{1, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	fams = append(fams, guideFamily{"circulant", cc.G})
	return fams
}

// compareGuideWords requires word-for-word equality of the two engines'
// reachability guides.
func compareGuideWords(t *testing.T, step string, inc, ref *route.ShardedEngine) {
	t.Helper()
	iw, ig := inc.GuideWords()
	rw, rg := ref.GuideWords()
	if ig != rg {
		t.Fatalf("%s: guide groups diverge: incremental %d, rebuild %d", step, ig, rg)
	}
	if (iw == nil) != (rw == nil) {
		t.Fatalf("%s: guide presence diverges: incremental %v, rebuild %v", step, iw != nil, rw != nil)
	}
	for i := range iw {
		if iw[i] != rw[i] {
			t.Fatalf("%s: guide word %d diverges: incremental %#x, rebuild %#x (vertex %d, group %d)",
				step, i, iw[i], rw[i], i/ig, i%ig)
		}
	}
}

// lockstepBatch drives one request batch through the incrementally
// maintained engine, the full-rebuild reference, and the sequential
// router, requiring bit-identical decisions and paths.
func lockstepBatch(t *testing.T, step string, inc, ref *route.ShardedEngine, seq *route.Router,
	ins, outs []int32, r *rng.RNG, k int) []route.Request {
	t.Helper()
	reqs := make([]route.Request, k)
	for i := range reqs {
		reqs[i] = route.Request{In: ins[r.Intn(len(ins))], Out: outs[r.Intn(len(outs))]}
	}
	ri := inc.ConnectBatch(reqs, nil)
	rr := ref.ConnectBatch(reqs, nil)
	rs := seq.ConnectBatch(reqs, nil)
	accepted := reqs[:0:0]
	for i := range reqs {
		ok := ri[i].Path != nil
		if ok != (rr[i].Path != nil) || ok != (rs[i].Path != nil) {
			t.Fatalf("%s: request %d (%d->%d): decisions diverge: inc=%v rebuild=%v sequential=%v",
				step, i, reqs[i].In, reqs[i].Out, ok, rr[i].Path != nil, rs[i].Path != nil)
		}
		if !ok {
			continue
		}
		accepted = append(accepted, reqs[i])
		if len(ri[i].Path) != len(rr[i].Path) || len(ri[i].Path) != len(rs[i].Path) {
			t.Fatalf("%s: request %d: path lengths diverge: %d/%d/%d",
				step, i, len(ri[i].Path), len(rr[i].Path), len(rs[i].Path))
		}
		for j := range ri[i].Path {
			if ri[i].Path[j] != rr[i].Path[j] || ri[i].Path[j] != rs[i].Path[j] {
				t.Fatalf("%s: request %d: paths diverge at hop %d: %v / %v / %v",
					step, i, j, ri[i].Path, rr[i].Path, rs[i].Path)
			}
		}
	}
	return accepted
}

// TestIncrementalGuideMatchesRebuild: randomized fault/churn/revert
// sequences on every zoo family × three fault seeds (the engine ignores
// the shard count, which now only derives the seed). At every step the
// incremental guide must equal a full rebuild word for word, and the
// engine must stay decision- and path-identical to the sequential Router
// — including mid-sequence reverts and diffs applied while circuits are
// live.
//
// The damage arm (checkDamageArm) then runs on the same family and seed.
func TestIncrementalGuideMatchesRebuild(t *testing.T) {
	const (
		trials = 12
		eps    = 0.03
	)
	for _, fam := range guideZoo(t) {
		for _, shards := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", fam.name, shards), func(t *testing.T) {
				g := fam.g
				inc := route.NewShardedEngine(g, 1)
				ref := route.NewShardedEngine(g, 1)
				seq := route.NewRouter(g)

				inst := fault.NewInstance(g)
				mu := core.NewMaskUpdater(g)
				var m core.Masks
				mu.Init(inst, &m)
				inc.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)
				ref.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)
				seq.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)
				if w, _ := inc.GuideWords(); w == nil {
					t.Fatalf("guide unexpectedly off for %s", fam.name)
				}
				compareGuideWords(t, "init", inc, ref)

				bi := fault.NewBatchInjector(g)
				seed := uint64(0x641DE) + uint64(len(fam.name))*uint64(shards)
				bi.FillStream(fault.Symmetric(eps), seed, 0, trials)
				r := rng.New(seed ^ 0xC0FFEE)
				ins, outs := g.Inputs(), g.Outputs()
				batch := len(ins)/2 + 1

				for trial := 0; trial < trials; trial++ {
					diff := bi.ApplyNext(inst)
					edges := mu.Apply(inst, &m, diff)
					inc.MasksChangedDiff(mu.ChangedVertices(), edges)
					ref.MasksChanged()
					compareGuideWords(t, fmt.Sprintf("trial %d apply", trial), inc, ref)

					acc := lockstepBatch(t, fmt.Sprintf("trial %d churn A", trial),
						inc, ref, seq, ins, outs, r, batch)

					// Revert the trial's faults while circuits are live — the
					// interleaved-churn case the epoch-stamped worklist must
					// survive — then connect more and re-apply.
					edges = mu.Revert(inst, &m, diff)
					inc.MasksChangedDiff(mu.ChangedVertices(), edges)
					ref.MasksChanged()
					compareGuideWords(t, fmt.Sprintf("trial %d revert", trial), inc, ref)

					lockstepBatch(t, fmt.Sprintf("trial %d churn B", trial),
						inc, ref, seq, ins, outs, r, batch)

					for _, rq := range acc {
						ei := inc.Disconnect(rq.In, rq.Out)
						er := ref.Disconnect(rq.In, rq.Out)
						es := seq.Disconnect(rq.In, rq.Out)
						if (ei == nil) != (er == nil) || (ei == nil) != (es == nil) {
							t.Fatalf("trial %d: disconnect (%d,%d) diverges: %v/%v/%v",
								trial, rq.In, rq.Out, ei, er, es)
						}
					}

					fault.ApplyDiff(inst, diff)
					edges = mu.Apply(inst, &m, diff)
					inc.MasksChangedDiff(mu.ChangedVertices(), edges)
					ref.MasksChanged()
					compareGuideWords(t, fmt.Sprintf("trial %d reapply", trial), inc, ref)

					inc.Reset()
					ref.Reset()
					seq.Reset()
					compareGuideWords(t, fmt.Sprintf("trial %d post-reset", trial), inc, ref)
				}
				checkDamageArm(t, g, seed)
			})
		}
	}
}

// checkDamageArm is TestIncrementalGuideMatchesRebuild's damage arm: each
// trial's failure list is stamped onto fault-free masks
// (core.MaskUpdater.Stamp), and engines refreshed by MasksDamaged must
// match a full rebuild over the same bytes word for word — one sharing
// the stamped masks, its guide budget switched off and back on
// mid-sequence (SetGuideLimit empties the fault-free copy), and a
// NewRepairedShardedEngine built on the faulted instance, whose own bytes
// differ from the fault-free network it copies. The arm runs twice: with
// the production cutover, then with the cutover disabled, so every trial
// takes the copy + cone path even on families where one failure crosses
// the cutover.
func checkDamageArm(t *testing.T, g *graph.Graph, seed uint64) {
	t.Helper()
	const (
		trials = 16
		eps    = 0.01
	)
	for _, cone := range []bool{false, true} {
		if cone {
			defer route.SetGuideRebuildDivisor(0)()
		}
		inst := fault.NewInstance(g)
		mu := core.NewMaskUpdater(g)
		var m core.Masks
		mu.Init(inst, &m)
		dam := route.NewShardedEngine(g, 1)
		ref := route.NewShardedEngine(g, 1)
		dam.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)
		ref.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)
		bi := fault.NewBatchInjector(g)
		bi.FillStream(fault.Symmetric(eps), seed, 0, trials)
		for trial := 0; trial < trials; trial++ {
			step := fmt.Sprintf("cone=%v trial %d", cone, trial)
			bi.ApplyNext(inst)
			list, _ := bi.AppliedFailures()
			vs, es := mu.Stamp(&m, list)
			if trial == trials/2 {
				dam.SetGuideLimit(0)
				if w, _ := dam.GuideWords(); w != nil {
					t.Fatalf("%s: guide still on with a zero budget", step)
				}
				dam.SetGuideLimit(64)
			}
			dam.MasksDamaged(vs, es)
			ref.MasksChanged()
			compareGuideWords(t, step+" damage", dam, ref)
			rp := route.NewRepairedShardedEngine(inst, 1)
			rp.MasksDamaged(vs, es)
			compareGuideWords(t, step+" repaired damage", rp, ref)
		}
	}
}

// FuzzIncrementalGuide drives randomized diff/revert sequences over three
// topology shapes and checks the incremental guide against a full rebuild
// word for word at every step (part of the Makefile fuzz-smoke set).
func FuzzIncrementalGuide(f *testing.F) {
	f.Add(uint64(1), uint16(20), uint8(6), uint8(2))
	f.Add(uint64(42), uint16(80), uint8(10), uint8(1))
	f.Add(uint64(7), uint16(5), uint8(3), uint8(3))
	// The fourth byte is unused; it keeps the corpus valid.
	f.Fuzz(func(t *testing.T, seed uint64, epsMil uint16, trials, _ uint8) {
		var g *graph.Graph
		switch seed % 3 {
		case 0:
			nw, err := core.Build(core.DefaultParams(1))
			if err != nil {
				t.Skip()
			}
			g = nw.G
		case 1:
			hx, err := hyperx.New([]int{3, 2}, 3)
			if err != nil {
				t.Skip()
			}
			g = hx.G
		default:
			cc, err := circulant.New(8, []int{1, 3}, 4)
			if err != nil {
				t.Skip()
			}
			g = cc.G
		}
		nTrials := int(trials%16) + 1
		eps := float64(epsMil%200) / 1000

		inc := route.NewShardedEngine(g, 1)
		ref := route.NewShardedEngine(g, 1)
		inst := fault.NewInstance(g)
		mu := core.NewMaskUpdater(g)
		var m core.Masks
		mu.Init(inst, &m)
		inc.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)
		ref.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)

		bi := fault.NewBatchInjector(g)
		bi.FillStream(fault.Symmetric(eps), seed, 0, nTrials)
		check := func(step string) {
			t.Helper()
			iw, ig := inc.GuideWords()
			rw, rg := ref.GuideWords()
			if ig != rg || len(iw) != len(rw) {
				t.Fatalf("%s: guide shapes diverge: %d×%d vs %d×%d", step, len(iw), ig, len(rw), rg)
			}
			for i := range iw {
				if iw[i] != rw[i] {
					t.Fatalf("%s: guide word %d diverges: %#x vs %#x", step, i, iw[i], rw[i])
				}
			}
		}
		for trial := 0; trial < nTrials; trial++ {
			diff := bi.ApplyNext(inst)
			edges := mu.Apply(inst, &m, diff)
			inc.MasksChangedDiff(mu.ChangedVertices(), edges)
			ref.MasksChanged()
			check(fmt.Sprintf("trial %d apply", trial))
			if seed>>uint(trial%48)&1 == 1 {
				edges = mu.Revert(inst, &m, diff)
				inc.MasksChangedDiff(mu.ChangedVertices(), edges)
				ref.MasksChanged()
				check(fmt.Sprintf("trial %d revert", trial))
				fault.ApplyDiff(inst, diff)
				edges = mu.Apply(inst, &m, diff)
				inc.MasksChangedDiff(mu.ChangedVertices(), edges)
				ref.MasksChanged()
				check(fmt.Sprintf("trial %d reapply", trial))
			}
		}
	})
}

// TestIncrementalGuideAllocFree: a steady-state guide update — fault diff,
// incremental masks, reverse-cone propagation — must not allocate once the
// engine and updater are warm (the per-epoch analogue of the engine's
// churn alloc gates; the worklist's buckets are preallocated to level
// widths, so this holds by construction).
func TestIncrementalGuideAllocFree(t *testing.T) {
	nw, err := core.Build(core.DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	g := nw.G
	se := route.NewShardedEngine(g, 1)
	inst := fault.NewInstance(g)
	mu := core.NewMaskUpdater(g)
	var m core.Masks
	mu.Init(inst, &m)
	se.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)

	const total = 120
	bi := fault.NewBatchInjector(g)
	bi.FillStream(fault.Symmetric(0.01), 0xA110C2, 0, total)
	step := func() {
		diff := bi.ApplyNext(inst)
		edges := mu.Apply(inst, &m, diff)
		se.MasksChangedDiff(mu.ChangedVertices(), edges)
	}
	for i := 0; i < 40; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(60, step); avg != 0 {
		t.Fatalf("incremental guide epoch allocates %.2f allocs/op in steady state, want 0", avg)
	}
}
