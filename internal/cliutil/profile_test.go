package cliutil

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has samples to write.
	x := 0
	for i := 0; i < 1<<20; i++ {
		x += i * i
	}
	_ = x
	stop()
	stop() // idempotent
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile %s: %v", path, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}
	// After stop, the Exit hook must be unregistered.
	profileMu.Lock()
	registered := profileStop != nil
	profileMu.Unlock()
	if registered {
		t.Fatal("profile stop still registered after stop()")
	}
}

// exitChildEnv marks the re-executed helper process of
// TestExitFlushesProfiles; its value is the profile directory.
const exitChildEnv = "REPRO_CLIUTIL_EXIT_CHILD"

// TestExitChildProcess is the re-executed half of TestExitFlushesProfiles:
// it starts both profiles, burns some CPU and takes the error exit. It
// skips unless spawned by that test.
func TestExitChildProcess(t *testing.T) {
	dir := os.Getenv(exitChildEnv)
	if dir == "" {
		t.Skip("helper process for TestExitFlushesProfiles")
	}
	if _, err := StartProfiles(filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")); err != nil {
		t.Fatal(err)
	}
	x := 0
	for i := 0; i < 1<<20; i++ {
		x += i * i
	}
	_ = x
	Exit("child", 4, errors.New("boom"))
}

// TestExitFlushesProfiles: an error exit through Exit writes both
// profiles, reports "prog: err" and exits with the given code.
func TestExitFlushesProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child test process")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestExitChildProcess$")
	cmd.Env = append(os.Environ(), exitChildEnv+"="+dir)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 4 {
		t.Fatalf("child exited with %v, want code 4 (stderr %q)", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "child: boom\n") {
		t.Fatalf("child stderr %q, want the prog: err line", stderr.String())
	}
	for _, name := range []string{"cpu.pprof", "mem.pprof"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("profile %s: %v", name, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty after an error exit", name)
		}
	}
}

func TestStartProfilesDisabled(t *testing.T) {
	stop, err := StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	stop()
	flushProfiles() // no-op without a registration
}

func TestStartProfilesBadPath(t *testing.T) {
	if _, err := StartProfiles(filepath.Join(t.TempDir(), "no", "such", "dir.pprof"), ""); err == nil {
		t.Fatal("unwritable cpu profile path accepted")
	}
}

func TestSchedulerFlag(t *testing.T) {
	for _, ok := range []string{"", "auto", "heap4", "calendar"} {
		if got, err := Scheduler(ok); err != nil || got != ok {
			t.Errorf("Scheduler(%q) = %q, %v", ok, got, err)
		}
	}
	if _, err := Scheduler("splay"); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}
