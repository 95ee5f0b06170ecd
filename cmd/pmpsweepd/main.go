// Command pmpsweepd is the distributed sweep service (docs/sweep.md,
// "Distributed mode"): a coordinator that serves the job table and the
// merged results store of a distributed experiment run, and a worker
// mode that executes leased jobs on the local machine.
//
// Coordinator mode (default) serves the HTTP+JSON protocol of
// internal/sweep/remote on -listen, in front of a sweep that keeps its
// records in the -store JSONL file and runs no job itself. Clients
// submit work with `pmpexperiments -remote <addr>`; any number of
// clients can submit concurrently, and identical jobs are deduplicated
// by their deterministic sweep IDs. Workers lease the oldest queued
// jobs. A worker that dies or stalls has its leased jobs re-queued
// for the survivors after -lease-ttl, then quarantined after -retries
// lapsed leases. On SIGINT/SIGTERM the coordinator writes the run
// manifest (including per-worker job tallies) next to the store and
// exits.
//
// Worker mode (-worker) leases batches from -connect, runs them on a
// local sweep pool of -parallel goroutines, and streams the records
// back, heartbeating so slow jobs are not re-leased while the worker
// is alive. It names itself (-name plus a random suffix) on every
// request, so it needs no registration and outlives a coordinator
// restart.
//
// -canon prints the canonical resolution of a results store (last
// record per ID, sorted, timing fields zeroed); two stores that
// resolved the same jobs identically print byte-identical dumps,
// which is how scripts/distributed_smoke.sh compares a distributed
// run against its serial baseline.
//
// Usage:
//
//	pmpsweepd -listen 127.0.0.1:7077 -store runs/merged.jsonl [-resume]
//	          [-lease-ttl 60s] [-lease-max 16] [-retries 2] [-drain-grace 2s]
//	          [-auth-token secret]
//	pmpsweepd -worker -connect 127.0.0.1:7077 [-parallel N] [-name W]
//	          [-job-timeout 30m] [-retries 2] [-exit-when-drained]
//	          [-auth-token secret]
//	pmpsweepd -canon runs/merged.jsonl
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pmp/internal/bench"
	"pmp/internal/sweep"
	"pmp/internal/sweep/remote"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7077", "coordinator listen address")
	storePath := flag.String("store", "", "merged results store (JSONL); required in coordinator mode")
	resume := flag.Bool("resume", false, "serve jobs already completed in -store without re-running them")
	leaseTTL := flag.Duration("lease-ttl", 60*time.Second, "lease lifetime without a report/heartbeat before re-leasing")
	leaseMax := flag.Int("lease-max", 16, "max jobs per lease batch")
	retries := flag.Int("retries", 2, "coordinator: lease attempts before quarantine; worker: local attempts per job")
	drainGrace := flag.Duration("drain-grace", 2*time.Second, "coordinator: quiet time after the last client contact before idle workers are told the run is over")
	authToken := flag.String("auth-token", "", "shared-secret bearer token: coordinator requires it on every endpoint; worker sends it with every request")

	workerMode := flag.Bool("worker", false, "run as a worker instead of the coordinator")
	connect := flag.String("connect", "", "worker: coordinator address to connect to")
	name := flag.String("name", "", "worker: label shown in /status and the manifest (default host/pid)")
	parallel := flag.Int("parallel", 0, "worker: local pool size (0 = GOMAXPROCS)")
	jobTimeout := flag.Duration("job-timeout", 30*time.Minute, "worker: per-job attempt timeout (0 = none)")
	exitWhenDrained := flag.Bool("exit-when-drained", false, "worker: exit once the coordinator reports the run over (all jobs resolved, no client activity for -drain-grace)")

	canon := flag.String("canon", "", "print the canonical resolution of this store and exit")
	verbose := flag.Bool("v", false, "log every scheduling event")
	flag.Parse()

	logger := log.New(os.Stderr, "pmpsweepd: ", log.LstdFlags|log.Lmsgprefix)
	eventLog := func(string, ...any) {}
	if *verbose {
		eventLog = logger.Printf
	}

	switch {
	case *canon != "":
		if err := sweep.WriteCanonical(os.Stdout, *canon); err != nil {
			logger.Fatal(err)
		}
	case *workerMode:
		if *connect == "" {
			logger.Fatal("-worker requires -connect")
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		err := remote.RunWorker(ctx, remote.WorkerOptions{
			Coordinator:     *connect,
			Name:            *name,
			Parallel:        *parallel,
			Build:           bench.BuildRun,
			Token:           *authToken,
			MaxAttempts:     *retries,
			JobTimeout:      *jobTimeout,
			ExitWhenDrained: *exitWhenDrained,
			Logf:            logger.Printf,
		})
		if err != nil && ctx.Err() == nil {
			logger.Fatal(err)
		}
		logger.Printf("worker stopped: %v", err)
	default:
		if *storePath == "" {
			logger.Fatal("coordinator mode requires -store (or use -worker / -canon)")
		}
		store, err := sweep.OpenStore(*storePath, *resume)
		if err != nil {
			logger.Fatal(err)
		}
		if *resume && store.Loaded() > 0 {
			logger.Printf("resuming: %d records already in %s", store.Loaded(), *storePath)
		}
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			logger.Fatal(err)
		}
		sw := sweep.New(context.Background(), sweep.Options{MaxAttempts: *retries, Store: store})
		coord := remote.NewCoordinator(remote.CoordinatorOptions{
			Sweep:      sw,
			LeaseTTL:   *leaseTTL,
			LeaseMax:   *leaseMax,
			DrainGrace: *drainGrace,
			AuthToken:  *authToken,
			Logf:       eventLog,
		})
		srv := &http.Server{Handler: coord.Handler()}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		go func() {
			<-ctx.Done()
			shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(shctx)
		}()
		logger.Printf("coordinator listening on %s (store %s, lease TTL %v, %d attempts)",
			ln.Addr(), *storePath, *leaseTTL, *retries)
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			logger.Fatal(err)
		}
		st := coord.Status()
		m := sw.Close()
		m.Coordinator = ln.Addr().String()
		m.RemoteWorkers = len(st.Workers)
		if err := sweep.WriteManifest(store.ManifestPath(), m); err != nil {
			logger.Printf("manifest: %v", err)
			m.StoreErrors++
		}
		if m.StoreErrors > 0 {
			logger.Printf("%d store errors: the merged store or its manifest is incomplete", m.StoreErrors)
		}
		fmt.Fprintf(os.Stderr,
			"pmpsweepd: %d jobs (%d completed, %d cached, %d quarantined, %d deduped) via %d workers, %d expired leases (manifest: %s)\n",
			m.Submitted, m.Completed, m.Cached, m.Quarantined, m.Deduped,
			m.RemoteWorkers, st.Expired, store.ManifestPath())
	}
}
