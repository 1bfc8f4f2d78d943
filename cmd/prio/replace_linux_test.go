//go:build linux

package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"repro/internal/dagman"
	"repro/internal/workloads"
)

// fileSizeLimit names the environment variable that makes
// TestHelperLimitedRun run prio.
const fileSizeLimit = "PRIO_TEST_FILE_SIZE_LIMIT"

// TestHelperLimitedRun is not a test but the child process of
// limitedRun: it runs prio on the arguments after "--" with its file
// size limit lowered to the value of fileSizeLimit, and exits 1 with
// prio's error on stderr if the run fails. Without fileSizeLimit set it
// does nothing.
func TestHelperLimitedRun(t *testing.T) {
	limit := os.Getenv(fileSizeLimit)
	if limit == "" {
		return
	}
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	n, err := strconv.ParseUint(limit, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	lim.Cur = min(n, lim.Cur)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	if err := run(os.Args[slices.Index(os.Args, "--")+1:], io.Discard); err != nil {
		fmt.Fprint(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// limitedRun runs prio on args in a child process whose file size
// limit is limit bytes, as `ulimit -f` sets it: a write that would
// grow a file past the limit fails with EFBIG (the Go runtime ignores
// the SIGXFSZ that comes with it). A child, because the limit is per
// process and would fail the test binary's own writes too. It returns
// prio's error, or nil when the run succeeded.
func limitedRun(t *testing.T, limit int, args ...string) error {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestHelperLimitedRun$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), fileSizeLimit+"="+strconv.Itoa(limit))
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		if _, ok := err.(*exec.ExitError); !ok || stderr.Len() == 0 {
			t.Fatalf("prio %v under a %d-byte file size limit: %v: %s", args, limit, err, stderr.String())
		}
		return errors.New(stderr.String())
	}
	return nil
}

// snapshot reads every regular file in dir.
func snapshot(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

// TestRunFailedWriteLeavesInputs makes the rewrite fail part-way with a
// file size limit below the output's size. -inplace (or -o naming the
// input) must leave the DAGMan file, and -submit each JSDF,
// byte-identical, with no temporary file left behind: prio writes a complete copy before it replaces
// anything, where truncating the input first would leave it cut off at
// the limit.
func TestRunFailedWriteLeavesInputs(t *testing.T) {
	const limit = 16 << 10
	text := dagman.FromGraph(workloads.Montage(12, 5), nil).String()
	if len(text) <= 2*limit {
		t.Fatalf("test premise broken: the dag is only %d bytes", len(text))
	}
	t.Run("inplace", func(t *testing.T) {
		dir := t.TempDir()
		dagPath := filepath.Join(dir, "montage.dag")
		if err := os.WriteFile(dagPath, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		before := snapshot(t, dir)
		if err := limitedRun(t, limit, "-inplace", dagPath); err == nil || !strings.Contains(err.Error(), "file too large") {
			t.Fatalf("prio under a %d-byte file size limit returned %v, want file too large", limit, err)
		}
		expectFiles(t, dir, before)
	})
	t.Run("o names the input", func(t *testing.T) {
		dir := t.TempDir()
		dagPath := filepath.Join(dir, "montage.dag")
		if err := os.WriteFile(dagPath, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		before := snapshot(t, dir)
		if err := limitedRun(t, limit, "-o", filepath.Join(dir, ".", "montage.dag"), dagPath); err == nil || !strings.Contains(err.Error(), "file too large") {
			t.Fatalf("prio under a %d-byte file size limit returned %v, want file too large", limit, err)
		}
		expectFiles(t, dir, before)
	})
	t.Run("submit", func(t *testing.T) {
		dir, dagPath := writeInput(t)
		big := "executable = c\n" + strings.Repeat("# padding past the file size limit\n", 2*limit/35) + "queue\n"
		if err := os.WriteFile(filepath.Join(dir, "c.sub"), []byte(big), 0o644); err != nil {
			t.Fatal(err)
		}
		before := snapshot(t, dir)
		if err := limitedRun(t, limit, "-inplace", "-submit", dagPath); err == nil || !strings.Contains(err.Error(), "c.sub") {
			t.Fatalf("prio under a %d-byte file size limit returned %v, want an error naming c.sub", limit, err)
		}
		after := snapshot(t, dir)
		if !strings.Contains(string(after["IV.dag"]), "jobpriority") {
			t.Fatal("the DAGMan file, below the limit, was not instrumented")
		}
		before["IV.dag"] = after["IV.dag"]
		for _, name := range []string{"a.sub", "b.sub", "d.sub", "e.sub"} {
			before[name] = after[name] // below the limit too
		}
		expectFiles(t, dir, before)
	})
}

// expectFiles fails unless dir holds exactly the files want.
func expectFiles(t *testing.T, dir string, want map[string][]byte) {
	t.Helper()
	got := snapshot(t, dir)
	for name, b := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s left behind (%d bytes)", name, len(b))
		} else if !bytes.Equal(b, w) {
			t.Errorf("%s changed: %d bytes, was %d", name, len(b), len(w))
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s is gone", name)
		}
	}
}

// TestRunInplaceKeepsModeAndLink rewrites a DAGMan file and its JSDF
// through symlinks: each link must survive, pointing at its
// instrumented target, which keeps its permission bits.
func TestRunInplaceKeepsModeAndLink(t *testing.T) {
	dir, _ := writeInput(t)
	real := filepath.Join(dir, "real")
	if err := os.Mkdir(real, 0o755); err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(real, "IV.dag")
	if err := os.WriteFile(target, []byte(fig3), 0o640); err != nil {
		t.Fatal(err)
	}
	link := filepath.Join(dir, "link.dag")
	if err := os.Symlink(target, link); err != nil {
		t.Fatal(err)
	}
	sub := filepath.Join(dir, "c.sub")
	if err := os.Rename(sub, filepath.Join(real, "c.sub")); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(filepath.Join(real, "c.sub"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(filepath.Join(real, "c.sub"), sub); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-inplace", "-submit", link}, nil); err != nil {
		t.Fatal(err)
	}
	for path, mode := range map[string]os.FileMode{link: 0o640, sub: 0o600} {
		if fi, err := os.Lstat(path); err != nil || fi.Mode()&os.ModeSymlink == 0 {
			t.Fatalf("%s is no longer a symlink (%v)", path, err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Mode().Perm() != mode {
			t.Errorf("%s has mode %v, want %v", path, fi.Mode().Perm(), mode)
		}
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(text), "jobpriority") {
			t.Errorf("%s not instrumented:\n%s", path, text)
		}
	}
}
