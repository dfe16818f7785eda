package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/api"
	"repro/sentinel"
)

func main() {
	var (
		name         = flag.String("name", "", "cluster-unique node name (required)")
		roles        = flag.String("role", "", "comma-separated roles: broker,store,detect,gateway, or all (required)")
		listen       = flag.String("listen", "127.0.0.1:0", "rpc transport listen address (unused without -peers)")
		httpAddr     = flag.String("http", "", "HTTP listen address (empty disables)")
		peers        = flag.String("peers", "", "comma-separated name=host:port pairs, one per cluster node (empty: this node is the whole deployment)")
		zkNode       = flag.String("zk-node", "", "peer hosting the coordination service (default: self when gateway)")
		partitions   = flag.Int("partitions", 4, "cluster-wide bus partition count")
		units        = flag.Int("units", 10, "fleet units")
		sensors      = flag.Int("sensors", 8, "sensors per unit")
		storageNodes = flag.Int("storage-nodes", 2, "region servers / TSD daemons on a store node")
		writers      = flag.Int("writers", 2, "storage writer consumers on a store node")
		workers      = flag.Int("workers", 2, "detector pool workers on a detect node")
		detector     = flag.String("detector", "cusum", "primary detector family on detect nodes")
		warmup       = flag.Int("warmup", 0, "detector warmup rows (0 = family default)")
		stores       = flag.Int("stores", 1, "store nodes to wait for before serving")
		seed         = flag.Uint64("seed", 42, "detector seed")
		rate         = flag.Float64("rate", 0, "per-client request budget at the gateway's admission stage (req/s, burst 2x; over it: 429 + Retry-After; 0 disables)")
		apiKeys      = flag.String("api-keys", "", "comma-separated X-API-Key values that are their own client under -rate (unlisted keys fall back to per-IP)")
		drainFor     = flag.Duration("drain", 15*time.Second, "graceful shutdown budget")

		sealAfter    = flag.Int64("seal-after", 3600, "store nodes: fleet-seconds behind the ingest frontier before a closed storage row seals into the compressed block tier")
		compactEvery = flag.Duration("compact-every", 15*time.Second, "store nodes: maintenance cadence — seal closed rows, spill over-budget blocks, enforce retention (0 disables)")
		rawTTL       = flag.Int64("raw-ttl", 0, "store nodes: drop sealed raw blocks older than this many fleet-seconds (rollups survive; 0 keeps forever)")
		rollupTTL    = flag.Int64("rollup-ttl", 0, "store nodes: drop rollup buckets older than this many fleet-seconds (0 keeps forever)")
		spillBytes   = flag.Int64("spill-bytes", 64<<20, "store nodes: resident compressed payload budget before sealed blocks spill to the HDFS tier (negative spills everything)")
	)
	flag.Parse()
	log.SetPrefix("sentineld: ")
	log.SetFlags(log.Ltime | log.Lmicroseconds)

	roleList, err := sentinel.ParseRoles(*roles)
	if err != nil {
		log.Fatal(err)
	}
	peerMap := make(map[string]string)
	if *peers != "" {
		for _, pair := range strings.Split(*peers, ",") {
			kv := strings.SplitN(pair, "=", 2)
			if len(kv) != 2 || kv[0] == "" || kv[1] == "" {
				log.Fatalf("bad -peers entry %q (want name=host:port)", pair)
			}
			peerMap[kv[0]] = kv[1]
		}
	}

	var detParams map[string]float64
	if *warmup > 0 {
		detParams = map[string]float64{"warmup": float64(*warmup)}
	}

	// -rate alone is a controller with a budget and no load signals: it
	// answers 429 per client and never sheds.
	gateway := sentinel.GatewayConfig{APIKeys: api.SplitKeys(*apiKeys)}
	if *rate > 0 {
		gateway.Admission = admission.NewController(admission.Config{RatePerSec: *rate})
	}

	node, err := sentinel.StartNode(sentinel.NodeConfig{
		Name:            *name,
		Roles:           roleList,
		Listen:          *listen,
		Peers:           peerMap,
		ZKNode:          *zkNode,
		Partitions:      *partitions,
		Units:           *units,
		SensorsPerUnit:  *sensors,
		StorageNodes:    *storageNodes,
		StorageWriters:  *writers,
		DetectorWorkers: *workers,
		PrimaryDetector: *detector,
		DetectorParams:  detParams,
		ExpectStores:    *stores,
		Seed:            *seed,
		SealAfter:       *sealAfter,
		CompactEvery:    *compactEvery,
		RawTTL:          *rawTTL,
		RollupTTL:       *rollupTTL,
		HotBlockBytes:   *spillBytes,
		GatewayConfig:   gateway,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%s serving roles [%s] on %s", node.Name(), *roles, node.Addr())

	var srv *http.Server
	if *httpAddr != "" {
		srv = &http.Server{Addr: *httpAddr, Handler: node.Handler(), ReadHeaderTimeout: 10 * time.Second}
		srv.RegisterOnShutdown(node.EndStreams)
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Fatalf("http: %v", err)
			}
		}()
		log.Printf("%s http on %s", node.Name(), *httpAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// In dependency order: stop accepting requests, then let the node
	// drain what it acked (bus into storage, proxy into the TSDs)
	// before its tiers go.
	log.Printf("%s shutting down (budget %s)", node.Name(), *drainFor)
	ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if srv != nil {
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
	}
	if err := node.Shutdown(ctx); err != nil {
		log.Printf("drain: %v", err)
	}
	log.Printf("%s shutdown complete", node.Name())
}
