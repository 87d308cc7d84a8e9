package route_test

import (
	"fmt"
	"testing"

	"ftcsn/internal/core"
	"ftcsn/internal/fault"
	"ftcsn/internal/graph"
	"ftcsn/internal/hyperx"
	"ftcsn/internal/route"
)

// BenchmarkGuideCutover measures the guide's full-rebuild cutover
// (guideRebuildDivisor) against the trial shape the batched pipeline
// produces: per trial, the damage MaskUpdater.Stamp reports is handed to
// MasksDamaged with the cutover disabled ("cone": fault-free copy + the
// damage's reverse cone, at any damage size) or the guide is rebuilt in
// full ("rebuild"). Both arms also copy the trial's traversal bytes in. The damage metric is (vertices + edges) / NumEdges,
// the quantity the cutover compares with 1/guideRebuildDivisor. Networks:
// 𝒩 at n = 64 and the DAG-unrolled 8×8 HyperX the zoo benchmarks use.
// DESIGN.md §2.13 records the table.
//
//	go test -run=NONE -bench=GuideCutover -cpu=1 ./internal/route/
func BenchmarkGuideCutover(b *testing.B) {
	nw, err := core.Build(core.DefaultParams(3))
	if err != nil {
		b.Fatal(err)
	}
	hx, err := hyperx.New([]int{8, 8}, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, net := range []struct {
		name string
		g    *graph.Graph
	}{{"N64", nw.G}, {"hyperx-8x8", hx.G}} {
		for _, eps := range []float64{5e-4, 1e-3, 2e-3, 3e-3, 1e-2, 3e-2} {
			for _, mode := range []string{"cone", "rebuild"} {
				b.Run(fmt.Sprintf("%s/eps=%g/%s", net.name, eps, mode), func(b *testing.B) {
					benchGuideRefresh(b, net.g, eps, mode == "cone")
				})
			}
		}
	}
}

func benchGuideRefresh(b *testing.B, g *graph.Graph, eps float64, cone bool) {
	defer route.SetGuideRebuildDivisor(0)()
	// Stamp a block of trials up front, keeping each trial's traversal
	// bytes and damage; the timed loop copies a trial's bytes in (the same
	// memcpy on both arms) and refreshes the guide.
	const trials = 64
	inst := fault.NewInstance(g)
	mu := core.NewMaskUpdater(g)
	var m core.Masks
	mu.Init(inst, &m)
	bi := fault.NewBatchInjector(g)
	bi.FillStream(fault.Symmetric(eps), 0xC07, 0, trials)
	bytes := make([][]uint8, trials)
	vs := make([][]int32, trials)
	es := make([][]int32, trials)
	var damage int
	for k := range bytes {
		bi.ApplyNext(inst)
		list, _ := bi.AppliedFailures()
		v, e := mu.Stamp(&m, list)
		bytes[k] = append([]uint8(nil), m.OutAllowed...)
		vs[k] = append([]int32(nil), v...)
		es[k] = append([]int32(nil), e...)
		damage += len(v) + len(e)
	}
	se := route.NewShardedEngine(g, 1)
	se.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)
	se.MasksDamaged(vs[trials-1], es[trials-1]) // builds the fault-free copy
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % trials
		copy(m.OutAllowed, bytes[k])
		if cone {
			se.MasksDamaged(vs[k], es[k])
		} else {
			se.MasksChanged()
		}
	}
	b.ReportMetric(float64(damage)/trials/float64(g.NumEdges()), "damage/E")
}
