package cliutil

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"

	"repro/internal/engine"
)

// profileStop is the active profile flusher, registered by StartProfiles
// so Exit can flush profiles on every error exit — including the SIGINT
// path, whose profile of an interrupted campaign is usually exactly the
// one being hunted.
var (
	profileMu   sync.Mutex
	profileStop func()
)

// StartProfiles starts CPU profiling to cpuPath and arranges a heap
// profile at memPath, either of which may be empty to skip it. The
// returned stop function flushes both; it is idempotent, safe to both
// defer and call on early-exit paths, and also runs automatically from
// Exit and ExitInterrupted. Typical CLI use:
//
//	stop, err := cliutil.StartProfiles(*cpuprofile, *memprofile)
//	if err != nil { ... }
//	defer stop()
func StartProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	var once sync.Once
	stop = func() {
		once.Do(func() {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			if memPath != "" {
				f, err := os.Create(memPath)
				if err != nil {
					fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
					return
				}
				defer f.Close()
				runtime.GC() // materialise the live set before the snapshot
				if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
					fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
				}
			}
			profileMu.Lock()
			profileStop = nil
			profileMu.Unlock()
		})
	}
	profileMu.Lock()
	profileStop = stop
	profileMu.Unlock()
	return stop, nil
}

// Exit flushes any profiles started with StartProfiles, reports err on
// stderr as "prog: err" and exits with code: the one error exit of every
// CLI, so a failing run still leaves a usable CPU/heap profile.
func Exit(prog string, code int, err error) {
	flushProfiles()
	fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	os.Exit(code)
}

// flushProfiles runs the registered profile stop function, if any.
func flushProfiles() {
	profileMu.Lock()
	stop := profileStop
	profileMu.Unlock()
	if stop != nil {
		stop()
	}
}

// Scheduler validates a -scheduler flag value against the engine's
// scheduler registry and returns it unchanged (the empty string means
// the engine default, auto).
func Scheduler(spec string) (string, error) {
	if spec == "" {
		return "", nil
	}
	for _, name := range engine.SchedulerNames() {
		if spec == name {
			return spec, nil
		}
	}
	return "", fmt.Errorf("unknown scheduler %q (%v)", spec, engine.SchedulerNames())
}
