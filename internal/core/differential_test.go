package core

import (
	"fmt"
	"testing"

	"ftcsn/internal/benes"
	"ftcsn/internal/circulant"
	"ftcsn/internal/fault"
	"ftcsn/internal/graph"
	"ftcsn/internal/hammock"
	"ftcsn/internal/hyperx"
	"ftcsn/internal/montecarlo"
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
	"ftcsn/internal/superconc"
)

// This file is the correctness gate for the batched fault-injection
// engine: for a seeded grid of (network family, ε, worker count, block
// size) it runs the batched block engine (StartBlock + EvaluateNextInto)
// against the legacy per-trial engine (EvaluateInto) and requires
// bit-identical per-trial outcomes and aggregate statistics. Both the
// harness-stream seeding (StartBlock) and the sequential Evaluate seeding
// (StartBlockSeq) are covered.

// diffFamilies returns the networks the differential grid runs over:
// distinct structural families of 𝒩 (paper-default rows, tall grids with
// low-degree expanders, explicit Gabber–Galil expanders, and a ν=2
// instance with a real recursive middle), plus the topology zoo served
// through the graph.Levels contract — a Mirror() image, an
// expander-based superconcentrator, a hammock-substituted Beneš, and the
// DAG-unrolled hyperx and circulant interconnects, each wrapped by
// WrapGraph. The wrapped families deliberately include permuted-sweep
// graphs (vertex IDs not level-sorted) so every differential grid
// exercises the level-order paths, not just the historical identity
// sweeps.
func diffFamilies(t testing.TB) map[string]*Network {
	t.Helper()
	fams := map[string]Params{
		"default-nu1":  DefaultParams(1),
		"tall-nu1":     {Nu: 1, Gamma: 0, M: 16, DQ: 2, Seed: 3},
		"explicit-nu1": {Nu: 1, Gamma: 0, M: 4, DQ: 1, Explicit: true, Seed: 1},
		"default-nu2":  DefaultParams(2),
	}
	nws := make(map[string]*Network, len(fams)+5)
	for name, p := range fams {
		nw, err := Build(p)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		nws[name] = nw
	}
	wrap := func(name string, g *graph.Graph) {
		nw, err := WrapGraph(g)
		if err != nil {
			t.Fatalf("wrap %s: %v", name, err)
		}
		nws[name] = nw
	}
	wrap("mirror-nu1", nws["default-nu1"].G.Mirror())
	sc, err := superconc.New(16, 3, 0xD1FF)
	if err != nil {
		t.Fatalf("build superconc-16: %v", err)
	}
	wrap("superconc-16", sc.G)
	bn, err := benes.New(2)
	if err != nil {
		t.Fatalf("build benes(2): %v", err)
	}
	wrap("benes-hammock", hammock.SubstituteEdges(bn.G, 2, 2, false))
	hx, err := hyperx.New([]int{2, 2}, 2)
	if err != nil {
		t.Fatalf("build hyperx-2x2: %v", err)
	}
	wrap("hyperx-2x2", hx.G)
	cc, err := circulant.New(6, []int{1, 2}, 3)
	if err != nil {
		t.Fatalf("build circulant-6: %v", err)
	}
	wrap("circulant-6", cc.G)
	return nws
}

// batchedDiffScratch adapts an Evaluator to the montecarlo BlockStarter
// hook for the differential runs, recording every per-trial outcome.
type batchedDiffScratch struct {
	ev   *Evaluator
	m    fault.Model
	seq  bool
	outs []TrialOutcome // shared, indexed by absolute trial; disjoint writes
}

func (s *batchedDiffScratch) StartBlock(seed, first uint64, n int) {
	if s.seq {
		s.ev.StartBlockSeq(s.m, seed, first, n)
	} else {
		s.ev.StartBlock(s.m, seed, first, n)
	}
}

func TestDifferentialBatchedVsLegacy(t *testing.T) {
	const (
		trials   = 40
		churnOps = 60
		seed     = uint64(0xD1FF)
	)
	epss := []float64{0.0005, 0.01, 0.06}
	workerGrid := []int{1, 3}
	blockGrid := []int{1, 7, 64}

	for name, nw := range diffFamilies(t) {
		for _, eps := range epss {
			m := fault.Symmetric(eps)

			// Legacy per-trial engine: the reference outcomes.
			want := make([]TrialOutcome, trials)
			lev := NewEvaluator(nw)
			var r rng.RNG
			for i := 0; i < trials; i++ {
				r.ReseedStream(seed, uint64(i))
				lev.EvaluateInto(&want[i], m, &r, churnOps)
			}

			for _, workers := range workerGrid {
				for _, block := range blockGrid {
					label := fmt.Sprintf("%s/eps=%v/w=%d/b=%d", name, eps, workers, block)
					got := make([]TrialOutcome, trials)
					var succ int
					scs := montecarlo.RunWith(
						montecarlo.Config{Trials: trials, Workers: workers, Seed: seed, Block: block},
						func() *batchedDiffScratch {
							return &batchedDiffScratch{ev: NewEvaluator(nw), m: m, outs: got}
						},
						func(_ *rng.RNG, s *batchedDiffScratch, i uint64) {
							s.ev.EvaluateNextInto(&s.outs[i], churnOps)
						})
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s: trial %d diverged:\nbatched %+v\nlegacy  %+v", label, i, got[i], want[i])
						}
					}
					for _, out := range got {
						if out.Success {
							succ++
						}
					}
					var wantSucc int
					for _, out := range want {
						if out.Success {
							wantSucc++
						}
					}
					if succ != wantSucc {
						t.Fatalf("%s: aggregate success %d != legacy %d", label, succ, wantSucc)
					}
					_ = scs
				}
			}
		}
	}
}

// TestDifferentialCertificatePath is the grid for the certificate-only
// fast path (EvaluateCertificateInto vs EvaluateNextCertInto).
func TestDifferentialCertificatePath(t *testing.T) {
	const (
		trials = 60
		seed   = uint64(0xCE47)
	)
	nw, err := Build(DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.001, 0.02} {
		m := fault.Symmetric(eps)
		want := make([]TrialOutcome, trials)
		lev := NewEvaluator(nw)
		var r rng.RNG
		for i := 0; i < trials; i++ {
			r.ReseedStream(seed, uint64(i))
			lev.EvaluateCertificateInto(&want[i], m, &r)
		}
		for _, block := range []int{5, 32} {
			got := make([]TrialOutcome, trials)
			montecarlo.RunWith(
				montecarlo.Config{Trials: trials, Workers: 2, Seed: seed, Block: block},
				func() *batchedDiffScratch {
					return &batchedDiffScratch{ev: NewEvaluator(nw), m: m, outs: got}
				},
				func(_ *rng.RNG, s *batchedDiffScratch, i uint64) {
					s.ev.EvaluateNextCertInto(&s.outs[i])
				})
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("eps=%v block=%d: certificate trial %d diverged:\nbatched %+v\nlegacy  %+v",
						eps, block, i, got[i], want[i])
				}
			}
		}
	}
}

// reportsEqual compares two majority reports field by field, returning a
// description of the first divergence.
func reportsEqual(a, b *MajorityReport) (string, bool) {
	if a.MiddleSize != b.MiddleSize {
		return fmt.Sprintf("MiddleSize %d != %d", a.MiddleSize, b.MiddleSize), false
	}
	if a.OK != b.OK {
		return fmt.Sprintf("OK %v != %v", a.OK, b.OK), false
	}
	if len(a.InputAccess) != len(b.InputAccess) || len(a.OutputAccess) != len(b.OutputAccess) {
		return "access slice lengths differ", false
	}
	for i := range a.InputAccess {
		if a.InputAccess[i] != b.InputAccess[i] {
			return fmt.Sprintf("InputAccess[%d] %d != %d", i, a.InputAccess[i], b.InputAccess[i]), false
		}
	}
	for j := range a.OutputAccess {
		if a.OutputAccess[j] != b.OutputAccess[j] {
			return fmt.Sprintf("OutputAccess[%d] %d != %d", j, a.OutputAccess[j], b.OutputAccess[j]), false
		}
	}
	return "", true
}

// TestDifferentialWordParallelCertifier is the batched-certificate leg of
// the differential harness: across network families × ε × strip widths,
// the word-parallel MajorityAccessInto must produce bit-identical reports
// (per-terminal counts and OK) to the per-terminal BFS — both the
// byte-reading fast BFS and the generic-mask BFS. Families include n=4 and
// n=16, so every strip width exercises a partial final strip (n not
// divisible by 64).
func TestDifferentialWordParallelCertifier(t *testing.T) {
	const trialsPerCell = 12
	epss := []float64{0.0005, 0.01, 0.06}
	widths := []int{1, 7, 64}
	for name, nw := range diffFamilies(t) {
		inst := fault.NewInstance(nw.G)
		mu := NewMaskUpdater(nw.G)
		ac := NewAccessChecker(nw)
		var m Masks
		var r rng.RNG
		var bfsFast, bfsGeneric, word MajorityReport
		checkers := make([]*BatchAccessChecker, len(widths))
		for wi, width := range widths {
			checkers[wi] = NewBatchAccessChecker(nw)
			if !checkers[wi].Supported() {
				t.Fatalf("%s: stage-ordered network not supported by batch certifier", name)
			}
			checkers[wi].lanes = width
		}
		for ei, eps := range epss {
			model := fault.Symmetric(eps)
			for trial := 0; trial < trialsPerCell; trial++ {
				r.ReseedStream(0xBA7C4, uint64(ei*trialsPerCell+trial))
				fault.InjectInto(inst, model, &r)
				mu.Init(inst, &m)

				nw.majorityAccessBFS(ac, m, &bfsFast)
				generic := Masks{VertexOK: m.VertexOK, EdgeOK: m.EdgeOK}
				nw.majorityAccessBFS(ac, generic, &bfsGeneric)
				if why, ok := reportsEqual(&bfsFast, &bfsGeneric); !ok {
					t.Fatalf("%s eps=%v trial %d: byte-BFS vs generic BFS: %s", name, eps, trial, why)
				}
				for wi, width := range widths {
					if !checkers[wi].MajorityAccessInto(m, &word) {
						t.Fatalf("%s eps=%v trial %d: word-parallel path declined applicable masks", name, eps, trial)
					}
					if why, ok := reportsEqual(&word, &bfsFast); !ok {
						t.Fatalf("%s eps=%v trial %d width=%d: word-parallel vs BFS: %s", name, eps, trial, width, why)
					}
				}
			}
		}
	}
}

// TestWordParallelBusyFallback: the fast path carries no busy information,
// so busy-aware masks must decline word-parallel certification and the
// Network entry point must still report -1 exemptions through the BFS.
func TestWordParallelBusyFallback(t *testing.T) {
	nw, err := Build(DefaultParams(1))
	if err != nil {
		t.Fatal(err)
	}
	inst := fault.NewInstance(nw.G)
	mu := NewMaskUpdater(nw.G)
	var m Masks
	mu.Init(inst, &m)

	busy := make([]bool, nw.G.NumVertices())
	busy[nw.Inputs()[1]] = true
	busy[nw.Outputs()[2]] = true
	m.Busy = busy

	bc := NewBatchAccessChecker(nw)
	var rep MajorityReport
	if bc.MajorityAccessInto(m, &rep) {
		t.Fatal("word-parallel certifier accepted busy-aware masks")
	}
	ac := NewAccessChecker(nw)
	nw.MajorityAccessInto(ac, m, &rep)
	if rep.InputAccess[1] != -1 || rep.OutputAccess[2] != -1 {
		t.Fatalf("busy terminals not exempted: in=%v out=%v", rep.InputAccess, rep.OutputAccess)
	}
	if rep.InputAccess[0] < 0 {
		t.Fatal("idle terminal wrongly exempted")
	}

	// Same masks without Busy: word-parallel engages and matches the BFS.
	m.Busy = nil
	var word, bfs MajorityReport
	if !bc.MajorityAccessInto(m, &word) {
		t.Fatal("word-parallel certifier declined busy-free masks")
	}
	nw.majorityAccessBFS(ac, m, &bfs)
	if why, ok := reportsEqual(&word, &bfs); !ok {
		t.Fatalf("busy-free reports diverge: %s", why)
	}
}

// TestGuidedCertificateTerminalFallback: on a graph where an output has an
// out-edge above the middle level, a middle-to-output path can pass
// through that output. Access counting treats it as an ordinary vertex;
// the routing guide enters a terminal only as a path's end, so its
// middle-stage rows undercount. The certifier must detect this once at
// construction and take the backward sweep even when handed a current
// guide, matching the per-terminal BFS — here and through the batched
// pipeline on the guided engine.
func TestGuidedCertificateTerminalFallback(t *testing.T) {
	// Levels: 0 inputs i0,i1; 1 a,b; 2 (middle) m0,m1,m2; 3 output o0
	// and c; 4 output o1. o0 -> o1 makes o0 interior to m0 -> o0 -> o1.
	b := graph.NewBuilder(10, 16)
	i0, i1 := b.AddVertex(0), b.AddVertex(0)
	a, bb := b.AddVertex(1), b.AddVertex(1)
	m0, m1, m2 := b.AddVertex(2), b.AddVertex(2), b.AddVertex(2)
	o0, c := b.AddVertex(3), b.AddVertex(3)
	o1 := b.AddVertex(4)
	for _, e := range [][2]int32{
		{i0, a}, {i0, bb}, {i1, a}, {i1, bb},
		{a, m0}, {a, m1}, {bb, m1}, {bb, m2},
		{m0, o0}, {m1, o0}, {m1, c}, {m2, c},
		{o0, o1}, {c, o1},
	} {
		b.AddEdge(e[0], e[1])
	}
	b.MarkInput(i0)
	b.MarkInput(i1)
	b.MarkOutput(o0)
	b.MarkOutput(o1)
	nw, err := WrapGraph(b.Freeze())
	if err != nil {
		t.Fatal(err)
	}
	if nw.MiddleStage != 2 {
		t.Fatalf("middle level %d, want 2", nw.MiddleStage)
	}
	bc := NewBatchAccessChecker(nw)
	if bc.guideExact {
		t.Fatal("certifier trusts the guide on a graph with an interior output")
	}

	inst := fault.NewInstance(nw.G)
	mu := NewMaskUpdater(nw.G)
	var m Masks
	mu.Init(inst, &m)
	se := route.NewShardedEngine(nw.G, 1)
	se.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)
	guide, groups := se.GuideWords()
	if guide == nil {
		t.Fatal("guide off on the hand-built graph")
	}

	// The guide's middle rows really disagree with access counting here:
	// o1 is reached from m0 only through o0.
	fromGuide := make([]int, len(nw.Outputs()))
	bc.countFromGuide(guide, groups, nw.MiddleStage, fromGuide)
	ac := NewAccessChecker(nw)
	var guided, bfs MajorityReport
	nw.majorityAccessBFS(ac, m, &bfs)
	if fromGuide[1] == bfs.OutputAccess[1] {
		t.Fatalf("guide rows give o1 access %d, same as the BFS: the graph does not exercise the fallback", fromGuide[1])
	}
	nw.majorityAccessGuidedInto(ac, m, guide, groups, &guided)
	if why, ok := reportsEqual(&guided, &bfs); !ok {
		t.Fatalf("guided certificate diverges from the BFS: %s", why)
	}

	// The batched pipeline on the guided engine, against the per-trial
	// oracle, across fault rates.
	for _, eps := range []float64{0, 0.05, 0.2} {
		const trials, churnOps, seed = 24, 12, uint64(0x7E1)
		fm := fault.Symmetric(eps)
		lev := NewEvaluator(nw)
		ev := NewEvaluator(nw)
		ev.SetChurnEngine(route.NewShardedEngine(nw.G, 1))
		ev.StartBlock(fm, seed, 0, trials)
		var r rng.RNG
		var want, got TrialOutcome
		for i := 0; i < trials; i++ {
			r.ReseedStream(seed, uint64(i))
			lev.EvaluateInto(&want, fm, &r, churnOps)
			ev.EvaluateNextInto(&got, churnOps)
			if got != want {
				t.Fatalf("eps=%v trial %d: batched %+v, per-trial %+v", eps, i, got, want)
			}
		}
	}
}

// TestEvaluatorCertAllocFree: steady-state batched certificate trials —
// diff application, incremental masks, word-parallel certification — must
// not allocate once the evaluator (including its lazily created batch
// certifier) is warm.
func TestEvaluatorCertAllocFree(t *testing.T) {
	nw, err := Build(DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(nw)
	m := fault.Symmetric(0.005)
	var out TrialOutcome
	ev.StartBlock(m, 0xA110C, 0, 400)
	for i := 0; i < 40; i++ {
		ev.EvaluateNextCertInto(&out)
	}
	avg := testing.AllocsPerRun(100, func() {
		ev.EvaluateNextCertInto(&out)
	})
	if avg > 0 {
		t.Fatalf("batched certificate trial allocates %.2f allocs/op in steady state, want 0", avg)
	}
}

// TestDifferentialSeqSeeding covers the StartBlockSeq convention used by
// E7/E9: trial i seeded rng.New(seedBase+i), churn continuing in-stream —
// against the legacy Evaluate(seedBase+i).
func TestDifferentialSeqSeeding(t *testing.T) {
	const (
		trials   = 30
		churnOps = 50
		seedBase = uint64(0xE7000)
	)
	nw, err := Build(DefaultParams(1))
	if err != nil {
		t.Fatal(err)
	}
	m := fault.Symmetric(0.01)
	want := make([]TrialOutcome, trials)
	lev := NewEvaluator(nw)
	for i := 0; i < trials; i++ {
		want[i] = lev.Evaluate(m, seedBase+uint64(i), churnOps)
	}
	for _, block := range []int{3, 16} {
		got := make([]TrialOutcome, trials)
		montecarlo.RunWith(
			montecarlo.Config{Trials: trials, Workers: 2, Seed: seedBase, Block: block},
			func() *batchedDiffScratch {
				return &batchedDiffScratch{ev: NewEvaluator(nw), m: m, seq: true, outs: got}
			},
			func(_ *rng.RNG, s *batchedDiffScratch, i uint64) {
				s.ev.EvaluateNextInto(&s.outs[i], churnOps)
			})
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("block=%d: seq-seeded trial %d diverged:\nbatched %+v\nlegacy  %+v", block, i, got[i], want[i])
			}
		}
	}
}

// TestEvaluatorModeMixing checks that an Evaluator recovers exact batched
// semantics after its instance was mutated by a legacy per-trial call
// between blocks (the resync path).
func TestEvaluatorModeMixing(t *testing.T) {
	nw, err := Build(DefaultParams(1))
	if err != nil {
		t.Fatal(err)
	}
	m := fault.Symmetric(0.02)
	const churnOps = 40
	ev := NewEvaluator(nw)
	ref := NewEvaluator(nw)
	var got, want TrialOutcome
	var r rng.RNG
	for round := 0; round < 3; round++ {
		// Legacy call dirties the instance…
		r.ReseedStream(77, uint64(1000+round))
		ev.EvaluateInto(&got, m, &r, churnOps)
		// …then a batched block must still match the reference evaluator.
		first := uint64(round * 4)
		ev.StartBlock(m, 99, first, 4)
		for j := 0; j < 4; j++ {
			ev.EvaluateNextInto(&got, churnOps)
			r.ReseedStream(99, first+uint64(j))
			ref.EvaluateInto(&want, m, &r, churnOps)
			if got != want {
				t.Fatalf("round %d trial %d: mixed-mode outcome diverged:\nbatched %+v\nlegacy  %+v", round, j, got, want)
			}
		}
	}
}
