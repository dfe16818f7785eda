// Package repro reproduces "Scalable Architecture for Anomaly
// Detection and Visualization in Power Generating Assets" (Jain et
// al., 2017) as a self-contained Go system.
//
// The public API lives in repro/sentinel; the substrates (simulated
// HBase/OpenTSDB/ZooKeeper/HDFS cluster, commit log, FDR detector,
// visualization web app) live under repro/internal. This root package
// carries the paper's claims (experiments.go: the Claims table, one row
// per numeric claim of Fig. 2, §III-B and §IV, with the storage rig and
// the §IV workloads the rows run), TestPaperClaims, which runs every
// row at CI size, and the repository-level benchmarks (bench_test.go).
// cmd/tsdbench runs the rows at full size and writes BENCH_paper.json;
// see README.md for the build/test/bench workflow, the package map,
// and the experiment index.
package repro
