package route_test

// Direct coverage for ShardedStats: the counter identities and the reject
// breakdown — otherwise exercised only incidentally by the differential
// harnesses.

import (
	"testing"

	"ftcsn/internal/netsim"
	"ftcsn/internal/route"
)

// statsIdentities checks the bookkeeping invariants every serving history
// must satisfy.
func statsIdentities(t *testing.T, st route.ShardedStats) {
	t.Helper()
	rejects := st.EndpointRejects + st.ProbeRejects
	if st.Requests != st.Accepted+rejects {
		t.Errorf("requests %d != accepted %d + endpoint rejects %d + probe rejects %d",
			st.Requests, st.Accepted, st.EndpointRejects, st.ProbeRejects)
	}
	// Every accept comes from one live probe; the harness-only counters
	// stay at their fixed values.
	if st.FastPath != st.Accepted || st.Fallbacks != 0 || st.CommitRejects != 0 {
		t.Errorf("fastpath %d != accepted %d, or fallbacks %d / commit rejects %d nonzero",
			st.FastPath, st.Accepted, st.Fallbacks, st.CommitRejects)
	}
	// The prefilter counters are vestigial: nothing sweeps, so both stay 0.
	if st.PrefilterRejects != 0 || st.PrefilterSweeps != 0 {
		t.Errorf("prefilter counters nonzero: rejects %d sweeps %d", st.PrefilterRejects, st.PrefilterSweeps)
	}
}

// engineStatsMatch checks the Engine-seam view agrees with the detailed
// counters.
func engineStatsMatch(t *testing.T, se *route.ShardedEngine) {
	t.Helper()
	es, st := se.Stats(), se.ShardedStats()
	if es.Batches != st.Batches || es.Requests != st.Requests || es.Accepted != st.Accepted {
		t.Errorf("EngineStats %+v disagrees with ShardedStats %+v", es, st)
	}
	if es.Rejected != st.Requests-st.Accepted {
		t.Errorf("EngineStats.Rejected %d != requests-accepted %d", es.Rejected, st.Requests-st.Accepted)
	}
}

// TestShardedStatsIdentitiesUnderChurn drives faulted churn (endpoint and
// probe rejects both possible) and checks every counter identity plus the
// seam view.
func TestShardedStatsIdentitiesUnderChurn(t *testing.T) {
	nw := buildNet(t, 2)
	m := repairedMasks(t, nw, 0.04, 0x151)
	se := route.NewShardedEngine(nw.G, 1)
	se.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)
	wl := netsim.NewWorkload(nw.Inputs(), nw.Outputs(), 0x57A7)
	var res []route.Result
	n := len(nw.Inputs())
	for round := 0; round < 40; round++ {
		reqs := wl.NextConnects(n)
		res = se.ConnectBatch(reqs, res)
		wl.Commit(res[:len(reqs)])
		for _, rel := range wl.NextReleases(n / 3) {
			if err := se.Disconnect(rel.In, rel.Out); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := se.ShardedStats()
	statsIdentities(t, st)
	engineStatsMatch(t, se)
	if st.Accepted == 0 || st.Requests == 0 {
		t.Fatalf("degenerate stream (requests=%d accepted=%d)", st.Requests, st.Accepted)
	}
	if st.ProbeRejects == 0 {
		t.Error("faulted churn produced no probe rejects; the blocking path was not exercised")
	}
}
