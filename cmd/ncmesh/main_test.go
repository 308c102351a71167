package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunCleanMesh(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "mesh.json")
	var out bytes.Buffer
	err := run([]string{
		"-relays", "2", "-leaves", "2", "-n", "8", "-k", "128", "-size", "4083",
		"-kill", "0", "-snapshot", snap,
	}, &out)
	if err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "wave complete") {
		t.Fatalf("no completion line in output:\n%s", out.String())
	}
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	for _, key := range []string{"origin", "members", "leaves"} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("snapshot missing %q:\n%s", key, raw)
		}
	}
}

func TestRunChaosKill(t *testing.T) {
	var out bytes.Buffer
	// 16 segments: a relay needs dozens of pump rounds to serve a leaf, so
	// the kill at the wave's tenth record lands mid-transfer by construction.
	// (At 4 segments a relay could have written a leaf's whole object before
	// the leaves had parsed ten records, and then nothing needed remediating.)
	err := run([]string{
		"-relays", "3", "-leaves", "3", "-n", "8", "-k", "128", "-size", "16300",
		"-chaos", "-kill", "1", "-kill-at", "10",
	}, &out)
	if err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "remediations") {
		t.Fatalf("no remediation summary in output:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-mode", "bogus"}, &out); err == nil {
		t.Fatal("unknown wire mode accepted")
	}
	if err := run([]string{"-relays", "2", "-kill", "2"}, &out); err == nil {
		t.Fatal("killing every relay accepted")
	}
}
