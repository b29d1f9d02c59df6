package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file is a strict validator for the Prometheus text exposition format
// (version 0.0.4) as this repo emits it — the test- and CI-side counterpart
// of WritePrometheus. It is deliberately stricter than a scraping client:
// every sample must belong to a declared family, TYPE lines must precede
// their samples, histogram buckets must be cumulative and monotone, and the
// sum/count invariants must hold. Substring checks rot; an invariant parser
// catches the regressions they miss (a gauge renamed, a bucket series that
// forgot to accumulate, a histogram missing its _count).

// PromFamily is one parsed metric family.
type PromFamily struct {
	// Name is the family name ("smtdram_job_latency_served_us").
	Name string
	// Type is "counter", "gauge", or "histogram".
	Type string
	// Samples maps each sample line's full name+labels key to its value;
	// for plain counters/gauges the key is just the name.
	Samples map[string]float64
	// BucketLe and BucketCount hold a histogram's cumulative bucket series in
	// exposition order ("+Inf" last).
	BucketLe    []string
	BucketCount []float64
	// Sum and Count are the histogram's _sum/_count samples.
	Sum, Count float64
	hasSum     bool
	hasCount   bool
}

// ParsePrometheus reads a full text exposition and returns its families by
// name, enforcing the format invariants. Any violation is an error naming the
// offending line.
func ParsePrometheus(r io.Reader) (map[string]*PromFamily, error) {
	families := map[string]*PromFamily{}
	var cur *PromFamily
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "HELP" {
				continue
			}
			if len(fields) != 4 || fields[1] != "TYPE" {
				return nil, fmt.Errorf("line %d: malformed comment %q (want \"# TYPE name kind\")", lineNo, line)
			}
			name, kind := fields[2], fields[3]
			if err := checkPromName(name); err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			switch kind {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, kind)
			}
			if _, dup := families[name]; dup {
				return nil, fmt.Errorf("line %d: duplicate TYPE declaration for %q", lineNo, name)
			}
			cur = &PromFamily{Name: name, Type: kind, Samples: map[string]float64{}}
			families[name] = cur
			continue
		}

		// Sample line: name[{labels}] value
		name, labels, value, err := splitSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		fam := familyOf(families, name)
		if fam == nil {
			return nil, fmt.Errorf("line %d: sample %q has no preceding TYPE declaration", lineNo, name)
		}
		if fam != cur {
			return nil, fmt.Errorf("line %d: sample %q is interleaved outside its family block", lineNo, name)
		}
		key := name
		if labels != "" {
			key = name + "{" + labels + "}"
		}
		if _, dup := fam.Samples[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate sample %q", lineNo, key)
		}
		fam.Samples[key] = value

		if fam.Type == "histogram" {
			switch {
			case name == fam.Name+"_bucket":
				le, ok := labelValue(labels, "le")
				if !ok {
					return nil, fmt.Errorf("line %d: histogram bucket without le label: %q", lineNo, line)
				}
				fam.BucketLe = append(fam.BucketLe, le)
				fam.BucketCount = append(fam.BucketCount, value)
			case name == fam.Name+"_sum":
				fam.Sum, fam.hasSum = value, true
			case name == fam.Name+"_count":
				fam.Count, fam.hasCount = value, true
			default:
				return nil, fmt.Errorf("line %d: sample %q does not belong to histogram %q", lineNo, name, fam.Name)
			}
		} else if name != fam.Name {
			return nil, fmt.Errorf("line %d: sample %q does not match family %q", lineNo, name, fam.Name)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, fam := range sortedFamilies(families) {
		if err := fam.check(); err != nil {
			return nil, err
		}
	}
	return families, nil
}

// check enforces per-family invariants.
func (f *PromFamily) check() error {
	switch f.Type {
	case "counter":
		for k, v := range f.Samples {
			if v < 0 {
				return fmt.Errorf("counter %q is negative (%g)", k, v)
			}
		}
	case "histogram":
		if len(f.BucketLe) == 0 {
			return fmt.Errorf("histogram %q has no buckets", f.Name)
		}
		if f.BucketLe[len(f.BucketLe)-1] != "+Inf" {
			return fmt.Errorf("histogram %q: last bucket le=%q, want +Inf", f.Name, f.BucketLe[len(f.BucketLe)-1])
		}
		prevLe := 0.0
		for i, le := range f.BucketLe {
			if i > 0 && f.BucketCount[i] < f.BucketCount[i-1] {
				return fmt.Errorf("histogram %q: bucket le=%q count %g < previous %g (not cumulative)",
					f.Name, le, f.BucketCount[i], f.BucketCount[i-1])
			}
			if le == "+Inf" {
				if i != len(f.BucketLe)-1 {
					return fmt.Errorf("histogram %q: +Inf bucket is not last", f.Name)
				}
				continue
			}
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return fmt.Errorf("histogram %q: unparsable le=%q", f.Name, le)
			}
			if i > 0 && b <= prevLe {
				return fmt.Errorf("histogram %q: bucket bounds not ascending at le=%q", f.Name, le)
			}
			prevLe = b
		}
		if !f.hasSum || !f.hasCount {
			return fmt.Errorf("histogram %q missing _sum or _count", f.Name)
		}
		if inf := f.BucketCount[len(f.BucketCount)-1]; inf != f.Count {
			return fmt.Errorf("histogram %q: +Inf bucket (%g) != _count (%g)", f.Name, inf, f.Count)
		}
		if f.Count == 0 && f.Sum != 0 {
			return fmt.Errorf("histogram %q: zero count with non-zero sum %g", f.Name, f.Sum)
		}
	}
	return nil
}

// splitSample parses `name{labels} value` / `name value`.
func splitSample(line string) (name, labels string, value float64, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.IndexByte(rest, '}')
		if j < i {
			return "", "", 0, fmt.Errorf("unterminated label set in %q", line)
		}
		labels = rest[i+1 : j]
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return "", "", 0, fmt.Errorf("malformed sample %q (want \"name value\")", line)
		}
		name, rest = fields[0], fields[1]
	}
	if err := checkPromName(name); err != nil {
		return "", "", 0, err
	}
	fields := strings.Fields(rest)
	if len(fields) != 1 {
		return "", "", 0, fmt.Errorf("malformed sample value in %q", line)
	}
	v, perr := strconv.ParseFloat(fields[0], 64)
	if perr != nil {
		return "", "", 0, fmt.Errorf("unparsable sample value %q in %q", fields[0], line)
	}
	return name, labels, v, nil
}

// checkPromName enforces the exposition metric-name alphabet.
func checkPromName(name string) error {
	if name == "" {
		return fmt.Errorf("empty metric name")
	}
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if !ok {
			return fmt.Errorf("metric name %q contains illegal rune %q", name, r)
		}
	}
	return nil
}

// labelValue extracts one label's (unquoted) value from a raw label-set body
// like `le="100",job="x"`.
func labelValue(labels, key string) (string, bool) {
	for _, part := range strings.Split(labels, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || k != key {
			continue
		}
		v = strings.TrimSpace(v)
		if len(v) >= 2 && v[0] == '"' && v[len(v)-1] == '"' {
			return v[1 : len(v)-1], true
		}
		return "", false // label values must be quoted
	}
	return "", false
}

// familyOf resolves a sample name to its family: exact match, or the
// histogram base name for _bucket/_sum/_count suffixes.
func familyOf(families map[string]*PromFamily, name string) *PromFamily {
	if f, ok := families[name]; ok {
		return f
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			if f, ok := families[base]; ok && f.Type == "histogram" {
				return f
			}
		}
	}
	return nil
}

func sortedFamilies(m map[string]*PromFamily) []*PromFamily {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*PromFamily, len(names))
	for i, n := range names {
		out[i] = m[n]
	}
	return out
}
