package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fdr"
	"repro/internal/mllib"
	"repro/internal/proxy"
	"repro/internal/simdata"
	"repro/internal/tsdb"
	"repro/sentinel"
)

// discardLog silences the gateway's per-request access line: at
// benchmark rates it is megabytes of stderr the harness itself would
// be measuring.
var discardLog = log.New(io.Discard, "", 0)

// sut is one booted system under test behind a loopback listener, with
// the exported counters the harness samples from outside.
type sut struct {
	spec  *spec
	fleet *simdata.Fleet
	url   string

	// sys is set on the single-process assembly, nodes on the cluster
	// one (broker, store-1, store-2, dg in that order).
	sys   *sentinel.System
	nodes []*sentinel.Node
	pool  *sentinel.DetectorPool

	proxies []*proxy.Proxy
	// now is fleet time as the gateway sees it (dashboard only).
	now atomic.Int64

	// sealSamplesPerSec and preSeal are filled by the dashboard set-up:
	// the compactor's measured rate and the pre-seal answers the
	// correctness check compares the sealed tier against.
	sealSamplesPerSec float64
	preSeal           []tsdb.Series

	closers []func()
}

func (s *sut) sum(get func(*proxy.Proxy) int64) int64 {
	var n int64
	for _, p := range s.proxies {
		n += get(p)
	}
	return n
}

func (s *sut) delivered() int64 {
	return s.sum(func(p *proxy.Proxy) int64 { return p.Delivered.Value() })
}
func (s *sut) dropped() int64 {
	return s.sum(func(p *proxy.Proxy) int64 { return p.Dropped.Value() })
}
func (s *sut) retries() int64 {
	return s.sum(func(p *proxy.Proxy) int64 { return p.Retries.Value() })
}
func (s *sut) queueDepth() int64 {
	return s.sum(func(p *proxy.Proxy) int64 { return p.QueueDepth.Value() })
}

// storageLag and detectorLag read the two consumer groups' backlog on
// the energy topic, in records.
func (s *sut) storageLag() int64 {
	if s.sys != nil {
		return s.sys.Topic().Group(sentinel.GroupStorage).Lag()
	}
	return s.nodes[0].Bus.Topic(sentinel.TopicEnergy).Group(sentinel.GroupStorage).Lag()
}

func (s *sut) detectorLag() int64 { return s.pool.Group().Lag() }

// replicated counts bus records copied to follower replicas (cluster
// assembly only).
func (s *sut) replicated() int64 {
	var n int64
	for _, nd := range s.nodes {
		if nd.BusSvc != nil {
			n += nd.BusSvc.Replicated.Value()
		}
	}
	return n
}

// deployments lists the TSD tiers holding this system's data.
func (s *sut) deployments() []*tsdb.Deployment {
	if s.sys != nil {
		return []*tsdb.Deployment{s.sys.TSDB}
	}
	return []*tsdb.Deployment{s.nodes[1].TSDB, s.nodes[2].TSDB}
}

// serve puts h behind a real loopback listener.
func (s *sut) serve(h http.Handler) error {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.url = "http://" + lis.Addr().String()
	srv := &http.Server{Handler: h, ErrorLog: discardLog}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(lis) // returns ErrServerClosed on close
	}()
	s.closers = append(s.closers, func() {
		_ = srv.Close()
		<-done
	})
	return nil
}

// close tears the system down, last-booted first.
func (s *sut) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// detectorParams are the family knobs both assemblies pass to
// mllib.New, so the offline reference in the flag check builds the very
// detector the pool runs.
func detectorParams(sp *spec) map[string]float64 {
	p := map[string]float64{"level": 0.05, "procedure": float64(fdr.BH), "minvotes": 2}
	for k, v := range sp.detectorParams {
		p[k] = v
	}
	return p
}

// newReferenceDetector builds unit's detector the way the assemblies
// do (seed derivation included), for the offline flag reference.
func (s *sut) newReferenceDetector(unit int) (mllib.Detector, error) {
	ctx := mllib.Context{
		Unit:    unit,
		Sensors: s.spec.sensors,
		Seed:    s.fleet.Config().Seed ^ uint64(unit)<<1,
		Params:  detectorParams(s.spec),
	}
	if s.sys != nil {
		ctx.LoadModel = func() (any, error) { return s.sys.Catalog.Load(unit) }
	}
	return mllib.New(s.spec.detector, ctx)
}

// bootSystem sets up the single-process assembly for sp: boot, train,
// preload and seal as the workload asks, detectors and gateway up.
func bootSystem(sp *spec, fleetCfg simdata.Config) (*sut, error) {
	s := &sut{spec: sp, fleet: simdata.NewFleet(fleetCfg)}
	sys, err := sentinel.New(sentinel.Config{
		StorageNodes:    sp.storageNodes,
		Units:           sp.units,
		SensorsPerUnit:  sp.sensors,
		Seed:            fleetCfg.Seed,
		FaultFraction:   fleetCfg.FaultFraction,
		FaultOnset:      fleetCfg.FaultOnset,
		PrimaryDetector: sp.detector,
		DetectorWorkers: sp.detectorWorkers,
		// The zero-loss setting: a batch is retried until it lands.
		ProxyMaxRetries: -1,
	})
	if err != nil {
		return nil, err
	}
	s.sys = sys
	s.closers = append(s.closers, sys.Close)
	s.proxies = []*proxy.Proxy{sys.Proxy}
	fail := func(err error) (*sut, error) {
		s.close()
		return nil, err
	}
	if sp.trainTicks > 0 {
		if err := sys.TrainFromFleet(0, sp.trainTicks, true); err != nil {
			return fail(fmt.Errorf("train: %w", err))
		}
	}
	s.pool = sys.StartDetectors(sp.detectorWorkers)
	s.closers = append(s.closers, s.pool.Stop)
	if sp.preloadTicks > 0 {
		if err := s.preload(); err != nil {
			return fail(err)
		}
	}
	s.now.Store(sp.firstTick() - 1)
	h, tail := sys.Gateway(0, sentinel.GatewayConfig{
		Now:       s.now.Load,
		MaxPoints: 512,
		AccessLog: discardLog,
	})
	s.closers = append(s.closers, tail.Close)
	if err := s.serve(h); err != nil {
		return fail(err)
	}
	return s, nil
}

// preload ingests the dashboard's history through the bus, waits for
// the detectors, records pre-seal answers for sampled series and seals
// the closed hour.
func (s *sut) preload() error {
	sp, sys := s.spec, s.sys
	if _, err := sys.IngestRange(0, sp.preloadTicks); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.pool.Sync(ctx); err != nil {
		return fmt.Errorf("preload: sync detectors: %w", err)
	}
	pre, err := sys.TSDB.TSDs()[0].QueryContext(ctx, sampledSeriesQuery(int64(sp.preloadTicks)-1))
	if err != nil {
		return fmt.Errorf("preload: pre-seal query: %w", err)
	}
	s.preSeal = pre
	start := time.Now()
	if err := sys.CompactNow(ctx); err != nil {
		return fmt.Errorf("preload: seal: %w", err)
	}
	if d := time.Since(start).Seconds(); d > 0 {
		s.sealSamplesPerSec = float64(sys.Blocks.SamplesSealed.Value()) / d
	}
	return nil
}

// sampledSeriesQuery selects unit 0's series over [0, to] — the series
// the sealed+hot ≡ pre-seal check samples.
func sampledSeriesQuery(to int64) tsdb.Query {
	return tsdb.Query{Metric: tsdb.MetricEnergy, Tags: map[string]string{"unit": "0"}, Start: 0, End: to}
}

// clusterNames is the four-node topology, in boot-dependency order.
var clusterNames = []string{"broker", "store-1", "store-2", "dg"}

// bootCluster sets up the role-split assembly: four in-process nodes
// over loopback TCP, the gateway node's handler behind its own HTTP
// listener.
func bootCluster(sp *spec, fleetCfg simdata.Config) (*sut, error) {
	s := &sut{spec: sp, fleet: simdata.NewFleet(fleetCfg)}
	roles := map[string][]sentinel.Role{
		"broker":  {sentinel.RoleBroker},
		"store-1": {sentinel.RoleStore},
		"store-2": {sentinel.RoleStore},
		"dg":      {sentinel.RoleDetect, sentinel.RoleGateway},
	}
	peers := make(map[string]string)
	listeners := make(map[string]net.Listener)
	for _, name := range clusterNames {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners {
				l.Close()
			}
			return nil, err
		}
		listeners[name] = lis
		peers[name] = lis.Addr().String()
	}
	var (
		mu    sync.Mutex
		wg    sync.WaitGroup
		nodes = make(map[string]*sentinel.Node)
		errs  []error
	)
	start := func(name string) {
		defer wg.Done()
		n, err := sentinel.StartNode(sentinel.NodeConfig{
			Name:            name,
			Roles:           roles[name],
			Listener:        listeners[name],
			Peers:           peers,
			ZKNode:          "dg",
			Partitions:      4,
			Units:           sp.units,
			SensorsPerUnit:  sp.sensors,
			StorageNodes:    sp.storageNodes,
			StorageWriters:  2,
			DetectorWorkers: sp.detectorWorkers,
			PrimaryDetector: sp.detector,
			DetectorParams:  sp.detectorParams,
			ExpectStores:    2,
			Seed:            fleetCfg.Seed,
		})
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			errs = append(errs, fmt.Errorf("boot %s: %w", name, err))
			return
		}
		nodes[name] = n
	}
	// The gateway hosts the coordination service every other boot
	// blocks on, and itself waits for both stores; the broker must win
	// the bus election before the stores join as followers.
	wg.Add(2)
	go start("dg")
	go start("broker")
	deadline := time.Now().Add(30 * time.Second)
	for {
		mu.Lock()
		b, failed := nodes["broker"], len(errs) > 0
		mu.Unlock()
		if failed || (b != nil && b.BusSvc.IsLeader(0)) {
			break
		}
		if time.Now().After(deadline) {
			mu.Lock()
			errs = append(errs, errors.New("broker never won the bus election"))
			mu.Unlock()
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	wg.Add(2)
	go start("store-1")
	go start("store-2")
	wg.Wait()
	for _, name := range clusterNames {
		if n := nodes[name]; n != nil {
			s.nodes = append(s.nodes, n)
			s.closers = append([]func(){n.Close}, s.closers...)
		}
	}
	if len(errs) > 0 {
		s.close()
		return nil, errors.Join(errs...)
	}
	s.pool = nodes["dg"].Pool
	s.proxies = []*proxy.Proxy{nodes["store-1"].Proxy, nodes["store-2"].Proxy}
	if err := s.serve(nodes["dg"].Handler()); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}
