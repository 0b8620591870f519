package obs

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Profiles wires the standard Go profilers into a command: CPU profile,
// heap profile, and execution trace. Register the flags on a FlagSet,
// then bracket the work with Start and the returned stop function.
//
// The execution-trace flag is named -exectrace (not -trace) so it reads
// as the Go runtime's execution trace, apart from the simulation's own
// schedule traces (`vcpusim trace`).
type Profiles struct {
	CPUFile  string
	MemFile  string
	ExecFile string
}

// Register declares -cpuprofile, -memprofile, and -exectrace on fs.
func (p *Profiles) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.CPUFile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.MemFile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&p.ExecFile, "exectrace", "", "write a runtime execution trace to this file")
}

// Start begins the requested profiles and returns a stop function that
// ends them and writes the heap profile. With no profile flags set it is
// a no-op returning a nil-error stop.
func (p *Profiles) Start() (stop func() error, err error) {
	var cpu, exec *os.File
	cleanup := func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if exec != nil {
			trace.Stop()
			exec.Close()
		}
	}
	if p.CPUFile != "" {
		cpu, err = os.Create(p.CPUFile)
		if err != nil {
			return nil, fmt.Errorf("obs: cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("obs: cpu profile: %w", err)
		}
	}
	if p.ExecFile != "" {
		exec, err = os.Create(p.ExecFile)
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("obs: execution trace: %w", err)
		}
		if err := trace.Start(exec); err != nil {
			cleanup()
			return nil, fmt.Errorf("obs: execution trace: %w", err)
		}
	}
	return func() error {
		cleanup()
		if p.MemFile == "" {
			return nil
		}
		f, err := os.Create(p.MemFile)
		if err != nil {
			return fmt.Errorf("obs: heap profile: %w", err)
		}
		defer f.Close()
		runtime.GC() // up-to-date allocation stats
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("obs: heap profile: %w", err)
		}
		return f.Close()
	}, nil
}
