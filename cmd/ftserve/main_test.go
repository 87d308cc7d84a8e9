package main

import (
	"strings"
	"testing"
)

func baseConfig() config {
	c, err := parseFlags(nil)
	if err != nil {
		panic(err)
	}
	return c
}

// TestRunDeterministic: the report is a pure function of the flags —
// byte-identical across runs — for every engine, on both healthy and
// faulty networks.
func TestRunDeterministic(t *testing.T) {
	cases := map[string]func(*config){
		"router":        func(c *config) { c.engine = "router" },
		"sharded":       func(c *config) { c.engine = "sharded" },
		"router-faulty": func(c *config) { c.engine = "router"; c.eps = 0.002 },
		"faulty":        func(c *config) { c.eps = 0.002 },
		"mmpp-hotspot":  func(c *config) { c.arrival = "mmpp"; c.pattern = "hotspot" },
		"diurnal-pareto": func(c *config) {
			c.arrival = "diurnal"
			c.holdDist = "pareto"
			c.pattern = "permutation"
		},
	}
	for name, tweak := range cases {
		t.Run(name, func(t *testing.T) {
			c := baseConfig()
			c.duration = 60
			c.report = 20
			tweak(&c)
			r1, ev1, err := run(c)
			if err != nil {
				t.Fatal(err)
			}
			r2, ev2, err := run(c)
			if err != nil {
				t.Fatal(err)
			}
			if r1 != r2 {
				t.Fatalf("reports differ across identical runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", r1, r2)
			}
			if ev1 != ev2 || ev1 == 0 {
				t.Fatalf("event counts: %d vs %d", ev1, ev2)
			}
			if !strings.Contains(r1, "final:") || !strings.Contains(r1, "behind:") {
				t.Fatalf("report missing final summary:\n%s", r1)
			}
			if !strings.Contains(r1, "t=") {
				t.Fatalf("report missing windowed lines:\n%s", r1)
			}
		})
	}
}

// TestRunRejectsBadFlags: unknown enum values and degenerate traffic
// parameters error out instead of serving nonsense.
func TestRunRejectsBadFlags(t *testing.T) {
	bad := []func(*config){
		func(c *config) { c.engine = "quantum" },
		func(c *config) { c.arrival = "steady" },
		func(c *config) { c.holdDist = "uniform" },
		func(c *config) { c.pattern = "tornado" },
		func(c *config) { c.rate = 0 },
	}
	for i, tweak := range bad {
		c := baseConfig()
		c.duration = 10
		tweak(&c)
		if _, _, err := run(c); err == nil {
			t.Fatalf("case %d: bad config accepted", i)
		}
	}
}
