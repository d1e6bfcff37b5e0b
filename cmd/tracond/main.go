// Command tracond is the TRACON placement daemon: it trains (or loads) an
// interference model library, owns a two-VM-per-machine inventory, and
// serves placement decisions over a JSON HTTP API (see internal/serve for
// the route table). SIGINT/SIGTERM drain gracefully: the listener stops
// accepting, in-flight requests finish, and background retrains complete
// before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"tracon/internal/durable"
	"tracon/internal/model"
	"tracon/internal/obs"
	"tracon/internal/serve"
	"tracon/internal/workload"
	"tracon/internal/xen"
)

func main() {
	var cfg daemonConfig
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:0", "listen address (port 0 picks a free port)")
	flag.StringVar(&cfg.portFile, "portfile", "", "write the actual listen address to this file once serving")
	flag.IntVar(&cfg.machines, "machines", 8, "machine inventory size (two VMs each)")
	flag.StringVar(&cfg.kindName, "model", "NLM", "model family: WMM, LM, NLM, NLMNoDom0, Forest")
	flag.StringVar(&cfg.policy, "policy", "mios", "scheduling policy: fifo, mios, mibs, mix")
	flag.IntVar(&cfg.queueLen, "queue-len", 4, "batch size for the batch policies (mibs, mix)")
	flag.Int64Var(&cfg.seed, "seed", 1, "testbed seed for training")
	flag.StringVar(&cfg.modelsIn, "models", "", "load a trained library from this JSON file instead of training")
	flag.StringVar(&cfg.modelsOut, "save-models", "", "save the trained library to this JSON file (LM/NLM families)")
	flag.IntVar(&cfg.maxInflight, "max-inflight", 0, "max concurrent submissions (0 = default)")
	flag.IntVar(&cfg.maxQueue, "max-queue", 0, "max queued tasks before 429 (0 = default, negative = unbounded)")
	flag.DurationVar(&cfg.batchWindow, "batch-window", 0, "coalesce singleton submissions for up to this long into one scheduling pass (0 = off)")
	flag.IntVar(&cfg.batchMax, "batch-max", 0, "max tasks per scheduling pass and per /v1/tasks:batch request (0 = default)")
	flag.StringVar(&cfg.cpuProf, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&cfg.memProf, "memprofile", "", "write a heap profile to this file on exit")
	flag.StringVar(&cfg.logFormat, "log-format", "text", "structured log encoding: text or json")
	flag.StringVar(&cfg.logLevel, "log-level", "info", "log level: debug, info, warn, error (debug logs every request)")
	flag.IntVar(&cfg.traceCap, "trace-cap", 0, "serving-span ring capacity for GET /v1/trace (0 = default, negative = off)")
	flag.DurationVar(&cfg.sloWindow, "slo-window", 0, "rolling SLO evaluation window (0 = default 1m)")
	flag.Float64Var(&cfg.sloP99, "slo-p99", 0, "latency objective: rolling p99 seconds (0 = default 0.25, negative = off)")
	flag.Float64Var(&cfg.sloErrRate, "slo-error-rate", 0, "error budget: rolling error fraction (0 = default 0.01, negative = off)")
	flag.DurationVar(&cfg.statsEvery, "stats-interval", 0, "runtime self-stats sampling period (0 = default 5s, negative = off)")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "crash-safe persistence directory (WAL + snapshots); empty = in-memory only")
	flag.StringVar(&cfg.fsync, "fsync", "always", "WAL durability policy: always, interval, never")
	flag.DurationVar(&cfg.fsyncEvery, "fsync-interval", 0, "max time between WAL fsyncs under -fsync=interval (0 = default 50ms)")
	flag.DurationVar(&cfg.snapEvery, "snapshot-interval", time.Minute, "compacted snapshot period (also triggered by -wal-max-bytes; <=0 = size-only)")
	flag.Int64Var(&cfg.walMaxBytes, "wal-max-bytes", 0, "WAL segment size that triggers an early snapshot (0 = default 64MiB, negative = off)")
	flag.Parse()

	logger, err := newLogger(cfg.logFormat, cfg.logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracond: %v\n", err)
		os.Exit(1)
	}
	cfg.logger = logger
	if err := run(cfg); err != nil {
		logger.Error("fatal", "err", err.Error())
		os.Exit(1)
	}
}

// newLogger builds the daemon's slog root from the -log-format and
// -log-level flags. Logs go to stderr; stdout stays clean for tooling.
func newLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

// daemonConfig holds the parsed flags, one field per flag, plus the
// logger built from -log-format and -log-level.
type daemonConfig struct {
	addr, portFile        string
	machines              int
	kindName, policy      string
	queueLen              int
	seed                  int64
	modelsIn, modelsOut   string
	maxInflight, maxQueue int
	batchWindow           time.Duration
	batchMax              int
	cpuProf, memProf      string
	logFormat, logLevel   string
	logger                *slog.Logger
	traceCap              int
	sloWindow             time.Duration
	sloP99, sloErrRate    float64
	statsEvery            time.Duration
	dataDir, fsync        string
	fsyncEvery, snapEvery time.Duration
	walMaxBytes           int64
}

func run(cfg daemonConfig) (err error) {
	stopProf, err := obs.StartProfiles(cfg.cpuProf, cfg.memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); err == nil {
			err = perr
		}
	}()

	kind, err := parseKind(cfg.kindName)
	if err != nil {
		return err
	}

	// Bring up the model library: load a saved one, or profile and train on
	// the simulated testbed. Training also retains the per-app training
	// sets so drift-triggered retrains can fold production observations
	// into the original profile and refit.
	var (
		lib   *model.Library
		brain *trainer
	)
	if cfg.modelsIn != "" {
		f, err := os.Open(cfg.modelsIn)
		if err != nil {
			return err
		}
		lib, err = model.LoadLibrary(f)
		f.Close()
		if err != nil {
			return err
		}
		if lib.Kind != kind {
			cfg.logger.Warn("loaded library overrides -model flag",
				"loaded", lib.Kind.String(), "flag", kind.String(), "path", cfg.modelsIn)
		}
		brain = &trainer{lib: lib}
		cfg.logger.Info("loaded model library",
			"kind", lib.Kind.String(), "apps", len(lib.Apps()), "path", cfg.modelsIn)
	} else {
		t0 := time.Now()
		brain, err = trainLibrary(kind, cfg.seed)
		if err != nil {
			return err
		}
		lib = brain.lib
		cfg.logger.Info("trained model library",
			"kind", kind.String(), "apps", len(lib.Apps()),
			"dur", time.Since(t0).Round(time.Millisecond).String())
	}
	if cfg.modelsOut != "" {
		f, err := os.Create(cfg.modelsOut)
		if err != nil {
			return err
		}
		err = lib.Save(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("saving library: %w", err)
		}
		cfg.logger.Info("saved model library", "path", cfg.modelsOut)
	}

	// Bring up the durability layer before the server: serve.New recovers
	// the placer from the journal (snapshot + WAL replay) during
	// construction, so by the time the listener opens the backlog and
	// inventory are exactly what the previous process acknowledged.
	var mgr *durable.Manager
	if cfg.dataDir != "" {
		policy, err := durable.ParseFsyncPolicy(cfg.fsync)
		if err != nil {
			return err
		}
		mgr, err = durable.Open(cfg.dataDir, durable.Options{
			Fsync:         policy,
			FsyncInterval: cfg.fsyncEvery,
			WALMaxBytes:   cfg.walMaxBytes,
			Now:           obs.Wall.Now,
		})
		if err != nil {
			return fmt.Errorf("opening data dir %s: %w", cfg.dataDir, err)
		}
		defer mgr.Close()
	}

	srv, err := serve.New(lib, serve.Config{
		Machines:       cfg.machines,
		Policy:         cfg.policy,
		QueueLen:       cfg.queueLen,
		MaxInflight:    cfg.maxInflight,
		MaxQueue:       cfg.maxQueue,
		CoalesceWindow: cfg.batchWindow,
		BatchMax:       cfg.batchMax,
		Retrain:        brain.retrain,
		Logger:         cfg.logger,
		TraceCap:       cfg.traceCap,
		SLOWindow:      cfg.sloWindow,
		SLOLatencyP99:  cfg.sloP99,
		SLOErrorRate:   cfg.sloErrRate,
		Journal:        mgr,
		Clock:          obs.Wall,
	})
	if err != nil {
		return err
	}

	// Snapshot loop: compact on the age ticker and whenever the live WAL
	// segment outgrows -wal-max-bytes.
	snapDone := make(chan struct{})
	defer close(snapDone)
	if mgr != nil {
		go func() {
			var tick <-chan time.Time
			if cfg.snapEvery > 0 {
				t := time.NewTicker(cfg.snapEvery)
				defer t.Stop()
				tick = t.C
			}
			for {
				select {
				case <-snapDone:
					return
				case <-tick:
				case <-mgr.SnapshotSignal():
				}
				if err := srv.SnapshotNow(); err != nil {
					cfg.logger.Error("snapshot failed", "err", err.Error())
				}
			}
		}()
	}
	if cfg.statsEvery >= 0 {
		sampler := obs.StartRuntimeStats(srv.Registry(), cfg.statsEvery)
		defer sampler.Stop()
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	if cfg.portFile != "" {
		if err := os.WriteFile(cfg.portFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			return err
		}
	}
	if cfg.batchWindow > 0 {
		cfg.logger.Info("coalescing enabled", "window", cfg.batchWindow.String())
	}
	cfg.logger.Info("serving",
		"machines", cfg.machines, "policy", cfg.policy, "addr", ln.Addr().String())

	httpSrv := &http.Server{Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	cfg.logger.Info("signal received, draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	srv.Drain()
	if mgr != nil {
		// Final compaction: a clean shutdown leaves a snapshot covering
		// everything, so the next boot replays nothing.
		if err := srv.SnapshotNow(); err != nil {
			cfg.logger.Error("final snapshot failed", "err", err.Error())
		}
	}
	cfg.logger.Info("drained cleanly",
		"swaps", srv.ModelSet().Swaps(), "drift_fires", srv.Swapper().DriftFires())
	return nil
}

// trainer holds what a retrain needs: the served library plus, when the
// daemon trained locally, the original training sets and solo profiles.
type trainer struct {
	lib   *model.Library
	sets  map[string]*model.TrainingSet // nil when the library was loaded
	solos map[string]xen.SoloProfile
}

// trainLibrary runs the full bring-up pipeline: profile each Table 3
// benchmark against the 125-point synthetic grid, on up to GOMAXPROCS
// testbed clones at once, and fit the family one app per core.
func trainLibrary(kind model.Kind, seed int64) (*trainer, error) {
	host, err := xen.NewHost(xen.DefaultHost())
	if err != nil {
		return nil, err
	}
	tb := xen.NewTestbed(host, 3, 0.05, seed)
	var bgs, specs []xen.AppSpec
	for _, w := range workload.ProfilingWorkloads(host.Config().Disk) {
		bgs = append(bgs, w.Spec)
	}
	for _, b := range workload.Benchmarks() {
		specs = append(specs, b.Spec)
	}
	sets, solos, err := model.ProfileAll(tb, specs, bgs, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	lib, err := model.TrainLibrary(kind, sets, solos, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	tr := &trainer{lib: lib, sets: map[string]*model.TrainingSet{}, solos: map[string]xen.SoloProfile{}}
	for i, spec := range specs {
		tr.sets[spec.Name] = sets[i]
		tr.solos[spec.Name] = solos[i]
	}
	return tr, nil
}

// retrain is the serve.Retrainer: fold the recent production observations
// into each application's profile and refit. Apps without a stored
// training set (loaded libraries) refit from recent samples alone when
// there are enough, and keep their current model otherwise.
func (tr *trainer) retrain(recent map[string][]model.Sample) (*model.Library, error) {
	cur := tr.lib
	next := model.NewLibrary(cur.Kind)
	for _, app := range cur.Apps() {
		feats, err := cur.Features(app)
		if err != nil {
			return nil, err
		}
		rt, err := cur.SoloRuntime(app)
		if err != nil {
			return nil, err
		}
		io, err := cur.SoloIOPS(app)
		if err != nil {
			return nil, err
		}
		solo := xen.SoloProfile{Runtime: rt, IOPS: io}
		if s, ok := tr.solos[app]; ok {
			solo = s
		}

		ts := &model.TrainingSet{App: app, Features: feats}
		if base, ok := tr.sets[app]; ok {
			ts.Samples = append(ts.Samples, base.Samples...)
		}
		ts.Samples = append(ts.Samples, recent[app]...)

		m, err := model.Train(ts, cur.Kind)
		if errors.Is(err, model.ErrTooFewSamples) {
			// Not enough evidence to refit this app: carry its current
			// model forward unchanged.
			m, err = cur.Model(app)
		}
		if err != nil {
			return nil, fmt.Errorf("retraining %s: %w", app, err)
		}
		if err := next.AddTrained(m, feats, solo); err != nil {
			return nil, err
		}
	}
	tr.lib = next
	return next, nil
}

func parseKind(s string) (model.Kind, error) {
	for _, k := range []model.Kind{model.WMM, model.LM, model.NLM, model.NLMNoDom0, model.Forest} {
		if strings.EqualFold(k.String(), s) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown model family %q (want WMM, LM, NLM, NLMNoDom0 or Forest)", s)
}
