package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// runEnv turns the test binary into opmbench: with it set, TestMain
// hands the command line to run and exits with its code. Every test
// below runs opmbench this way, in a child process of its own, because
// run parses the global flag set and because a process is what a
// SIGKILL can kill.
const runEnv = "OPMBENCH_TEST_RUN"

func TestMain(m *testing.M) {
	if os.Getenv(runEnv) != "" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// opmbench returns a command that runs opmbench with args in a child
// process.
func opmbench(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runEnv+"=1")
	return cmd
}

// finish runs cmd to completion and returns its exit code, stdout and
// stderr.
func finish(t *testing.T, cmd *exec.Cmd) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

// succeed runs cmd and fails the test unless it exits 0; it returns
// stdout.
func succeed(t *testing.T, cmd *exec.Cmd) string {
	t.Helper()
	code, stdout, stderr := finish(t, cmd)
	if code != 0 {
		t.Fatalf("%v exited %d; stderr:\n%s", cmd.Args[1:], code, stderr)
	}
	return stdout
}

// TestRemovedLogFlagsExitTwo: the slog run logs are gone, and with
// them opmbench's two log flags; each is refused as an unknown flag
// before any experiment runs.
func TestRemovedLogFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "fig6", "-log-level", "debug"},
		{"-exp", "fig6", "-log-json"},
	} {
		code, stdout, stderr := finish(t, opmbench(args...))
		if code != 2 || stdout != "" || !strings.Contains(stderr, "flag provided but not defined") {
			t.Fatalf("%v: exit %d, stdout %q, stderr:\n%s\nwant exit 2 on an unknown flag", args, code, stdout, stderr)
		}
	}
}

// TestStoreCloseFailureExitsOne: a -store whose close fails must fail
// the run, or a script that chains -store and -resume never learns of
// it. The report on stdout stays what a run without a store prints.
// The store is seeded with a journal holding one damaged record, so
// the close compacts it away, and journal.tmp as a directory makes that
// compaction fail even for root.
func TestStoreCloseFailureExitsOne(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s, err := store.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(store.Digest("damaged"), "test", "damaged", 1.5); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(dir, "journal")
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x80 // the record's last payload byte: its checksum fails on replay
	if err := os.WriteFile(journal, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "journal.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	args := []string{"-exp", "fig7", "-q", "-time=false"}
	want := succeed(t, opmbench(args...))
	code, got, stderr := finish(t, opmbench(append(args, "-store", dir)...))
	if code != 1 {
		t.Fatalf("exit %d after a failed store close, want 1; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "opmbench: store close:") {
		t.Fatalf("stderr does not report the close failure:\n%s", stderr)
	}
	if got != want {
		t.Fatalf("report changed by the failed close:\n%s\nwant:\n%s", got, want)
	}
}

// TestKillResumeByteIdentical kills opmbench -store with SIGKILL
// mid-sweep, tears the journal's tail, and resumes. The resumed run
// must print and write exactly what an uninterrupted run does, answer
// every cell the killed run journaled from the store, and compute only
// the rest. A kill cannot tear a single write(2), so the test appends
// the partial frame itself: that is the one way to take the torn-tail
// path on every run.
func TestKillResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig14's FFT sweep three times in child processes")
	}
	dir := t.TempDir()
	base := []string{"-exp", "fig14", "-q", "-time=false", "-workers", "1"}

	ref := filepath.Join(dir, "ref")
	refMetrics := filepath.Join(dir, "ref.json")
	refStdout := succeed(t, opmbench(append(base, "-out", ref, "-metrics", refMetrics)...))
	cells := counters(t, refMetrics)["sweep/jobs"]

	st := filepath.Join(dir, "store")
	journal := filepath.Join(st, "journal")
	got := filepath.Join(dir, "got")
	victim := opmbench(append(base, "-store", st, "-out", got)...)
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- victim.Wait() }()
	t.Cleanup(func() { victim.Process.Kill() }) // a no-op once it has exited
	deadline := time.After(5 * time.Minute)
	for journaledCells(t, journal) < 2 {
		select {
		case err := <-exited:
			t.Fatalf("opmbench exited (%v) before 2 cells were journaled", err)
		case <-deadline:
			t.Fatal("2 cells not journaled within 5 minutes")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-exited
	kept := int64(journaledCells(t, journal))
	if kept >= cells {
		t.Fatalf("the killed run had journaled all %d cells", cells)
	}
	t.Logf("killed after %d of %d cells were journaled", kept, cells)

	// A frame header promising a 64-byte payload, then 16 bytes of it.
	torn := make([]byte, 8+16)
	binary.BigEndian.PutUint32(torn, 64)
	f, err := os.OpenFile(journal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	metrics := filepath.Join(dir, "resume.json")
	stdout := succeed(t, opmbench(append(base, "-store", st, "-resume", "-out", got, "-metrics", metrics)...))
	if stdout != refStdout {
		t.Fatalf("resumed stdout differs from the uninterrupted run:\n%s\nwant:\n%s", stdout, refStdout)
	}
	sameFiles(t, ref, got)
	c := counters(t, metrics)
	if c["store/hits"] != kept || c["sweep/jobs"] != cells-kept {
		t.Fatalf("resume: %d store hits and %d computed cells, want %d and %d",
			c["store/hits"], c["sweep/jobs"], kept, cells-kept)
	}

	s, err := store.Open(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if stats := s.Stats(); stats.Corrupt != 0 || stats.TruncatedBytes != 0 || int64(stats.Live) != cells {
		t.Fatalf("store after resume: %+v, want %d clean cells", stats, cells)
	}
}

// journaledCells counts the complete frames in a store journal: a
// magic line, then records of [4-byte length][4-byte CRC][payload]. It
// only reads, so it is safe beside a live writer; a frame still being
// written is not counted.
func journaledCells(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	n, off := 0, len("OPMSTORE1\n")
	for off+8 <= len(data) {
		end := off + 8 + int(binary.BigEndian.Uint32(data[off:]))
		if end > len(data) {
			break
		}
		n, off = n+1, end
	}
	return n
}

// counters reads the counters of a -metrics dump.
func counters(t *testing.T, path string) map[string]int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatal(err)
	}
	return dump.Counters
}

// sameFiles requires directories a and b to hold the same file names
// with byte-identical contents.
func sameFiles(t *testing.T, a, b string) {
	t.Helper()
	read := func(dir string) map[string]string {
		files := map[string]string{}
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			data, err := os.ReadFile(path)
			files[strings.TrimPrefix(path, dir)] = string(data)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	fa, fb := read(a), read(b)
	if len(fa) == 0 {
		t.Fatalf("%s holds no files", a)
	}
	for name, data := range fa {
		if other, ok := fb[name]; !ok || other != data {
			t.Errorf("%s differs between %s and %s", name, a, b)
		}
	}
	for name := range fb {
		if _, ok := fa[name]; !ok {
			t.Errorf("%s is in %s only", name, b)
		}
	}
}
