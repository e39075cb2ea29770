package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"

	"ndpext/internal/bench"
)

// TestEmitPrintsPartialTable checks that a figure which failed in part
// prints its surviving rows and its FAILED cells, as text and as JSON,
// and that its error still comes back to be counted.
func TestEmitPrintsPartialTable(t *testing.T) {
	tbl := bench.Table{
		Title:   "Trace sweep",
		Columns: []string{"design", "time"},
		Rows: [][]string{
			{"Host", "1.00"},
			{"NDPExt", "FAILED(panic: boom)"},
		},
	}
	batch := &bench.BatchError{Rows: []*bench.RowError{
		{Index: 1, Design: "NDPExt", Workload: "pr", Panicked: true, Err: errors.New("boom")},
	}}

	var text bytes.Buffer
	if err := emit(&text, tbl, batch, false, "(footer)\n"); !errors.Is(err, batch) {
		t.Fatalf("text: error %v, want the batch error", err)
	}
	for _, want := range []string{"Host", "1.00", "FAILED(panic: boom)", "(footer)"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text output lacks %q:\n%s", want, text.String())
		}
	}

	var js bytes.Buffer
	if err := emit(&js, tbl, batch, true, "(footer)\n"); !errors.Is(err, batch) {
		t.Fatalf("json: error %v, want the batch error", err)
	}
	var got bench.Table
	if err := json.Unmarshal(js.Bytes(), &got); err != nil {
		t.Fatalf("json output does not parse: %v\n%s", err, js.String())
	}
	if got.Title != tbl.Title || !slices.EqualFunc(got.Rows, tbl.Rows, slices.Equal[[]string]) {
		t.Fatalf("json table = %+v, want %+v", got, tbl)
	}
}

// TestEmitFailureWithoutRows checks that a figure which failed before
// producing any row prints nothing and returns its error, and that a
// figure which succeeded prints its table and returns nil.
func TestEmitFailureWithoutRows(t *testing.T) {
	fail := errors.New("unknown figure")
	var out bytes.Buffer
	if err := emit(&out, bench.Table{Title: "empty"}, fail, false, "(footer)\n"); err != fail {
		t.Fatalf("error %v, want %v", err, fail)
	}
	if out.Len() != 0 {
		t.Fatalf("printed %q for a failure without rows", out.String())
	}
	if err := emit(&out, bench.Table{Title: "ok", Columns: []string{"a"}, Rows: [][]string{{"1"}}}, nil, false, ""); err != nil {
		t.Fatalf("success: %v", err)
	}
	if !strings.Contains(out.String(), "ok") {
		t.Fatalf("success printed %q", out.String())
	}
}
