package main

import (
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"E1", "E12"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("list output missing %s: %q", id, out.String())
		}
	}
}

func TestRunSingle(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-run", "E5"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "E5 — ") {
		t.Errorf("output: %q", out.String())
	}
}

func TestRunUnknown(t *testing.T) {
	if err := run([]string{"-run", "E99"}, &strings.Builder{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunCSV(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-run", "E5", "-csv"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "lambda/mu,") {
		t.Errorf("csv output: %q", out.String())
	}
	if err := run([]string{"-csv"}, &strings.Builder{}); err == nil {
		t.Error("-csv without -run accepted")
	}
}
