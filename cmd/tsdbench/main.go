// Command tsdbench runs the paper's claims, the Claims table in the
// root package's experiments.go, at full size: it prints each paper
// number next to ours and writes the table to BENCH_paper.json.
//
//	tsdbench                   # every row; writes BENCH_paper.json
//	tsdbench -run 'E5|E7'      # the rows whose id matches; prints only
//	tsdbench -run E1 -out e1.json
//
// It exits 1 when a row's rule does not hold, or when the host could not
// judge a row (E7 without two cores spare): run it where it can be.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"

	"repro"
)

// row is one claim in BENCH_paper.json: Values in the order of its
// measures, or Why the claim does not hold.
type row struct {
	repro.Claim
	Values []float64 `json:"values"`
	Holds  bool      `json:"holds"`
	Why    string    `json:"why,omitempty"`
}

func main() {
	run := flag.String("run", "", "run only the rows whose id matches this regexp")
	out := flag.String("out", "", "write the rows as JSON to this file (default BENCH_paper.json when every row runs)")
	flag.Parse()
	match, err := regexp.Compile(*run)
	if err != nil {
		log.Fatalf("tsdbench: -run: %v", err)
	}
	if *out == "" && *run == "" {
		*out = "BENCH_paper.json"
	}
	var rows []row
	failed := 0
	for _, c := range repro.Claims {
		if !match.MatchString(c.ID) {
			continue
		}
		v, err := c.Measure(repro.Full)
		fmt.Println(c.Report(v, err))
		r := row{Claim: c, Values: v, Holds: err == nil}
		if err != nil {
			r.Values, r.Why, failed = nil, err.Error(), failed+1
		}
		rows = append(rows, r)
	}
	if *out != "" {
		b, err := json.MarshalIndent(rows, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			log.Fatalf("tsdbench: %v", err)
		}
	}
	if failed > 0 {
		log.Fatalf("tsdbench: %d of %d claims do not hold", failed, len(rows))
	}
}
