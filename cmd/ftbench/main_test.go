package main

import (
	"strings"
	"testing"
)

func TestSelectIDs(t *testing.T) {
	valid := []string{"E1", "E2", "E14"}

	all, err := selectIDs("", valid)
	if err != nil || len(all) != 0 {
		t.Fatalf("empty -only: got %v, %v; want no filter", all, err)
	}
	got, err := selectIDs(" e1, E14 ,", valid)
	if err != nil || len(got) != 2 || !got["E1"] || !got["E14"] {
		t.Fatalf("case-insensitive list: got %v, %v", got, err)
	}
	_, err = selectIDs("E1,E99", valid)
	if err == nil || !strings.Contains(err.Error(), `"E99"`) || !strings.Contains(err.Error(), "E1,E2,E14") {
		t.Fatalf("unknown ID: err = %v, want it to name E99 and the valid IDs", err)
	}
}
