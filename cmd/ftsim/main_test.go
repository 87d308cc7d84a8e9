package main

import (
	"bytes"
	"testing"
)

// TestRunNetworkNPinned pins the network-n report byte for byte on a small
// run (ν=1, three ε values spanning certain success, a mixed rate and
// shorting). The table was produced when every trial still built its own
// evaluator through Network.Evaluate; reusing one evaluator must not move
// a byte.
func TestRunNetworkNPinned(t *testing.T) {
	const want = `network-N: n=4 L=8 edges=832
| ε      | P[success] (95% CI)           | P[majority] | P[shorted] | mean failed switches |
|--------|-------------------------------|-------------|------------|----------------------|
| 0.0010 | 1.0000 [0.9124,1.0000] (n=40) | 1           | 0          | 1.6250               |
| 0.0120 | 0.3750 [0.2422,0.5297] (n=40) | 0.3750      | 0          | 20.1250              |
| 0.0800 | 0.0000 [0.0000,0.0876] (n=40) | 0           | 0.5250     | 134.8500             |
`
	var out bytes.Buffer
	args := []string{"-nu", "1", "-trials", "40", "-eps", "0.001,0.012,0.08", "-churn", "30", "-seed", "3"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != want {
		t.Fatalf("network-n report changed:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunRejectsBadInput: bad flag values are errors, not partial reports.
func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-workers", "-1"},
		{"-eps", "x"},
		{"-kind", "torus"},
		{"-nosuchflag"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("%v: no error", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote %q", args, out.String())
		}
	}
}
