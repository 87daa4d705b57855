// Package profiling holds what the gem commands share around a run: the
// -j, -engine, -cache, -cache-dir, -cpuprofile, -memprofile, -trace and
// -stats flags, and the set-up behind them — obs collection and its
// flush, the pprof profiles (file creation, start/stop ordering, a GC
// before the heap snapshot), the result store and a context that SIGINT
// cancels.
package profiling

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"

	"gem/internal/logic"
	"gem/internal/obs"
	"gem/internal/store"
)

// Group selects flags for Register beyond -trace and -stats, which every
// command takes.
type Group int

// The flag groups.
const (
	Jobs    Group = 1 << iota // -j
	Engine                    // -engine
	Profile                   // -cpuprofile, -memprofile
	Cache                     // -cache, -cache-dir
)

// Flags holds the parsed values of the shared flags.
type Flags struct {
	Jobs                   int
	Engine                 logic.Engine
	trace                  string
	stats                  bool
	cpuProfile, memProfile string
	cacheMode, cacheDir    string
}

// Register adds -trace, -stats and the chosen groups to fs.
func Register(fs *flag.FlagSet, groups Group) *Flags {
	f := &Flags{}
	fs.StringVar(&f.trace, "trace", "", "write a Chrome trace-event JSON file (chrome://tracing, Perfetto)")
	fs.BoolVar(&f.stats, "stats", false, "print span and counter statistics to stderr on exit")
	if groups&Jobs != 0 {
		fs.IntVar(&f.Jobs, "j", runtime.NumCPU(), "parallelism (1 = sequential)")
	}
	if groups&Engine != 0 {
		fs.Var(&f.Engine, "engine", "temporal evaluation engine `name`: auto (the default), lattice or seq")
	}
	if groups&Profile != 0 {
		fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
		fs.StringVar(&f.memProfile, "memprofile", "", "write a pprof heap profile to this file")
	}
	if groups&Cache != 0 {
		fs.StringVar(&f.cacheMode, "cache", "rw", "persistent result store: off, ro or rw")
		fs.StringVar(&f.cacheDir, "cache-dir", "", "result store directory (default $GEM_CACHE_DIR, else the user cache dir)")
	}
	return f
}

// Observe turns obs collection on when -trace or -stats asks for it and
// returns the function that writes the trace file and prints the stats
// table to w. Call it once the run is over, an interrupted one too.
func (f *Flags) Observe(w io.Writer) (flush func() error) {
	if f.trace != "" || f.stats {
		obs.Enable()
	}
	return func() error { return obs.Flush(f.trace, f.stats, w) }
}

// Start is Observe plus the CPU profile and a context that SIGINT
// cancels. The caller defers stop with its named error result: stop
// releases the signal, stops the CPU profile and then flushes the trace
// and stats, so an interrupted run still leaves a complete profile and a
// valid trace. A flush error is reported only when *err is nil.
func (f *Flags) Start() (ctx context.Context, stop func(err *error), err error) {
	stopCPU, err := StartCPU(f.cpuProfile)
	if err != nil {
		return nil, nil, err
	}
	flush := f.Observe(os.Stderr)
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt)
	return ctx, func(err *error) {
		stopSig()
		stopCPU()
		if ferr := flush(); ferr != nil && *err == nil {
			*err = ferr
		}
	}, nil
}

// Store opens the result store -cache and -cache-dir select, as the
// verdict cache the checks take; both are nil when the cache is off.
func (f *Flags) Store() (*store.Store, logic.VerdictCache, error) {
	st, err := store.OpenFromFlags(f.cacheMode, f.cacheDir, os.Stderr)
	if err != nil || st == nil {
		return nil, nil, err
	}
	return st, st, nil
}

// WriteHeap writes the -memprofile heap profile, if one was asked for.
func (f *Flags) WriteHeap() error { return WriteHeap(f.memProfile) }

// StartCPU begins a CPU profile written to path and returns the stop
// function that must run before the process exits (a deferred call in
// the command's run function, not main, so os.Exit cannot skip it).
// An empty path is a no-op.
func StartCPU(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("profiling: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("profiling: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteHeap records an allocation profile to path after forcing a
// collection, so the snapshot reflects live retention rather than
// garbage awaiting the next GC cycle. An empty path is a no-op. A
// failed Close is reported too: the profile data may still be buffered
// in the kernel or the file table when the write itself succeeds, and a
// silently truncated profile is worse than no profile.
func WriteHeap(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("profiling: %w", err)
	}
	return writeHeapTo(f)
}

// writeHeapTo snapshots the heap into f and closes it. The close error
// is load-bearing: the runtime's profile writer swallows write errors
// internally (its gzip stream discards them), so a full disk or a bad
// descriptor is often only reported by close — the old `defer f.Close()`
// turned a truncated profile into a silent success.
func writeHeapTo(f *os.File) (err error) {
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("profiling: %w", cerr)
		}
	}()
	runtime.GC()
	if perr := pprof.WriteHeapProfile(f); perr != nil {
		return fmt.Errorf("profiling: %w", perr)
	}
	return nil
}
