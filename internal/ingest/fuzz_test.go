package ingest

import (
	"maps"
	"math"
	"reflect"
	"testing"

	"repro/internal/tsdb"
)

// FuzzParseLine holds the telnet line codec to its contract on any
// line: ParseLine returns a point or an error, never panics, a point it
// accepts has a finite value (JSON, which every read answers in, has no
// NaN or ±Inf), and that point formats (FormatLine) to a line that
// parses back to the identical point — metric, timestamp, value bits
// and tags — carrying the same interned tag map whenever the tag set is
// interned. Seeded
// from testdata/fuzz/FuzzParseLine — duplicate keys, '=' inside a value,
// tabs and Unicode spaces, NaN/±Inf/hex/-0 values, a tag set too long
// to intern, invalid UTF-8, malformed verbs, timestamps and tags.
func FuzzParseLine(f *testing.F) {
	p := tsdb.EnergyPoint(3, 14, 1500, 2.718)
	f.Add(FormatLine(&p))
	f.Fuzz(func(t *testing.T, line string) {
		p, err := ParseLine(line)
		if err != nil {
			return
		}
		if math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
			t.Fatalf("%q parsed to the non-finite value %v", line, p.Value)
		}
		formatted := FormatLine(&p)
		again, err := ParseLine(formatted)
		if err != nil {
			t.Fatalf("%q parsed, its formatted line %q did not: %v", line, formatted, err)
		}
		if again.Metric != p.Metric || again.Timestamp != p.Timestamp ||
			math.Float64bits(again.Value) != math.Float64bits(p.Value) || !maps.Equal(again.Tags, p.Tags) {
			t.Fatalf("%q parsed to %+v, its formatted line %q to %+v", line, p, formatted, again)
		}
		// A set the table holds is one map however it was spelled; a set
		// too long to intern (or met once the table is full) is a fresh
		// map per parse, which a second parse of line reveals.
		twice, _ := ParseLine(line)
		if sameMap(twice.Tags, p.Tags) && !sameMap(again.Tags, p.Tags) {
			t.Fatalf("%q and its formatted line %q decode to different maps of one interned tag set", line, formatted)
		}
	})
}

func sameMap(a, b map[string]string) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}
