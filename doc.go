// Package repro reproduces "Scalable Architecture for Anomaly
// Detection and Visualization in Power Generating Assets" (Jain et
// al., 2017) as a self-contained Go system.
//
// The public API lives in repro/sentinel; the substrates (simulated
// HBase/OpenTSDB/ZooKeeper/HDFS cluster, commit log, FDR detector,
// visualization web app) live under repro/internal. This
// root package carries the paper's Figure 2 and §III-B experiments
// (experiments.go: one storage rig — region servers, TSDs, the
// proxy, the simulated fleet — and one function per
// experiment, which cmd/tsdbench and examples/ingestscaling call), the
// shape tests that assert them (experiments_test.go) and the
// repository-level benchmarks (bench_test.go); see README.md for the
// build/test/bench workflow, the package map, and the
// benchmark-to-figure index.
package repro
