package server

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"parsample"
	"parsample/internal/faultinject"
)

// RunDaemon parses daemon flags and serves the v1 API until SIGINT/SIGTERM,
// then drains in-flight requests (10 s grace). It is the main of
// `parsample serve`.
func RunDaemon(args []string) error {
	const prog = "parsample serve"
	fs := flag.NewFlagSet(prog, flag.ExitOnError)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		cacheMB   = fs.Int64("cache-mb", 0, "artifact-store budget in MiB (0: the 256 MiB default)")
		workers   = fs.Int("workers", 0, "max concurrently executing stage kernels (0: GOMAXPROCS)")
		datasets  = fs.String("datasets", "", "comma-separated datasets to serve, pre-built at startup (YNG,MID,UNT,CRE); empty serves all, built lazily")
		maxBodyMB = fs.Int64("max-body-mb", 64, "request body limit in MiB")
		capacity  = fs.Float64("capacity-units", 0, "admission budget in cost units concurrently in flight (0: 2000; see api.EstimateCost)")
		queueLim  = fs.Int("queue-limit", 0, "max requests queued at the admission gate before 429s (0: 64)")
		clientRt  = fs.Float64("client-rate", 0, "per-client fair-share refill in cost units/second (0: capacity/2)")
		clientBur = fs.Float64("client-burst", 0, "per-client fair-share bucket depth in cost units (0: capacity)")
		failpts   = fs.String("failpoints", os.Getenv("PARSAMPLE_FAILPOINTS"), "fault-injection spec, e.g. \"pipeline.store.put=error;prob=0.01\" (default: $PARSAMPLE_FAILPOINTS; testing only)")
		cacheDir  = fs.String("cache-dir", "", "persistent artifact-cache directory: computed artifacts are snapshotted here and survive restarts; replicas may share one directory (empty disables)")
		diskBytes = fs.Int64("disk-cache-bytes", 0, "persistent cache pruning budget in bytes, least-recently-accessed snapshots deleted beyond it (0: 1 GiB; needs -cache-dir)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *failpts != "" {
		if err := faultinject.Configure(*failpts); err != nil {
			return fmt.Errorf("-failpoints: %w", err)
		}
		log.Printf("%s: fault injection armed: %s", prog, *failpts)
	}

	var opts []parsample.Option
	if *cacheMB > 0 {
		opts = append(opts, parsample.WithCacheBytes(*cacheMB<<20))
	}
	if *workers > 0 {
		opts = append(opts, parsample.WithWorkers(*workers))
	}
	if *datasets != "" {
		names := strings.Split(*datasets, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
		opts = append(opts, parsample.WithDatasets(names...))
	}
	if *cacheDir != "" {
		// Validate here so a bad flag is a friendly error, not the
		// facade's documented panic (after MkdirAll succeeds, New cannot
		// fail on the directory).
		if err := os.MkdirAll(*cacheDir, 0o755); err != nil {
			return fmt.Errorf("-cache-dir: %w", err)
		}
		opts = append(opts, parsample.WithCacheDir(*cacheDir))
		if *diskBytes > 0 {
			opts = append(opts, parsample.WithDiskCacheBytes(*diskBytes))
		}
	}
	p := parsample.New(opts...)
	// On shutdown, after the listener drains: flush pending write-behind
	// snapshots so everything computed this lifetime is disk-warm for the
	// next one.
	defer p.Close()
	srv := &http.Server{
		Addr: *addr,
		Handler: New(Config{
			Pipeline:         p,
			MaxBodyBytes:     *maxBodyMB << 20,
			CapacityUnits:    *capacity,
			QueueLimit:       *queueLim,
			ClientRateUnits:  *clientRt,
			ClientBurstUnits: *clientBur,
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(shutCtx)
	}()

	log.Printf("%s: serving v1 API on %s", prog, *addr)
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-done
}
