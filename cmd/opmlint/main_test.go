package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestBrokenFixtureFailsGate is the acceptance test behind the
// scripts/check.sh hard gate: linting a deliberately broken fixture
// must exit 1 and name the violation with file:line.
func TestBrokenFixtureFailsGate(t *testing.T) {
	root, _, err := lint.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(root)

	var stdout, stderr bytes.Buffer
	code := run([]string{"internal/lint/testdata/rangesort/rangesort"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("want exit 1 on broken fixture, got %d (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "internal/lint/testdata/rangesort/rangesort/bad.go:") {
		t.Errorf("findings should carry file:line into bad.go, got:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "[rangesort]") {
		t.Errorf("findings should name the check, got:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "finding(s)") {
		t.Errorf("stderr should summarize the count, got: %s", stderr.String())
	}
}

// TestCleanPackageExitsZero: a contract-clean package passes the gate.
func TestCleanPackageExitsZero(t *testing.T) {
	root, _, err := lint.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(root)

	var stdout, stderr bytes.Buffer
	code := run([]string{"internal/stats"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("want exit 0 on clean package, got %d\nstdout: %s\nstderr: %s",
			code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run should print nothing, got: %s", stdout.String())
	}
}

// TestListAndBadFlags: -list names every check; unknown -checks exits 2.
func TestListAndBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list: want exit 0, got %d", code)
	}
	for _, c := range lint.AllChecks() {
		if !strings.Contains(stdout.String(), c.Name) {
			t.Errorf("-list output missing check %q:\n%s", c.Name, stdout.String())
		}
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-checks", "nosuchcheck"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown -checks: want exit 2, got %d", code)
	}
}
