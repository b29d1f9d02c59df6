// Package faults is the deterministic fault-injection subsystem: a Plan
// (parsed from the -faults CLI spec) describes which memory-system faults a
// run should experience, and an Injector executes the plan with a seeded
// generator so that two runs of the same spec are byte-identical.
//
// One fault class is modeled: drop, a read's data lost inside the controller
// (timeout/CRC-fail on the link), recovered by bounded retry with exponential
// backoff.
//
// The spec grammar is semicolon-separated clauses of comma-separated k=v
// pairs, each clause at most once, e.g.:
//
//	drop:rate=1e-3,seed=7
//
// The package is a leaf below memctrl/core: it imports nothing from the
// simulator, so every layer can consume a Plan or an Injector.
package faults

import (
	"fmt"
	"strconv"
	"strings"
)

// Plan is a parsed fault-injection specification. The zero Plan injects
// nothing; a nil *Plan disables the subsystem entirely (and is what every
// fault-free run carries, so the hot path pays only nil checks).
type Plan struct {
	// DropRate is the per-read probability that the request's data is lost
	// in the controller and must be retried.
	DropRate float64
	// Seed drives the injector's generator (default 1).
	Seed uint64
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return p == nil || p.DropRate == 0
}

// Validate checks the plan's values.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	if !(p.DropRate >= 0 && p.DropRate <= 1) { // also rejects NaN
		return fmt.Errorf("faults: drop rate %g outside [0,1]", p.DropRate)
	}
	return nil
}

// String renders the plan in canonical spec form (clauses in a fixed order),
// suitable for labels and round-tripping through Parse.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var parts []string
	if p.DropRate > 0 {
		parts = append(parts, fmt.Sprintf("drop:rate=%g", p.DropRate))
	}
	if p.Seed != 0 && p.Seed != 1 {
		parts = append(parts, fmt.Sprintf("seed:v=%d", p.Seed))
	}
	return strings.Join(parts, ";")
}

// Parse builds a Plan from a -faults spec. An empty spec returns (nil, nil):
// no plan, no injection, no overhead.
func Parse(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := &Plan{Seed: 1}
	seen := map[string]bool{}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		kind, rest, _ := strings.Cut(clause, ":")
		kind = strings.ToLower(strings.TrimSpace(kind))
		// A repeated clause would silently overwrite the first one's values,
		// the same editing mistake parseKV rejects for a repeated key.
		if seen[kind] {
			return nil, fmt.Errorf("faults: more than one %s clause", kind)
		}
		seen[kind] = true
		kv, err := parseKV(kind, rest)
		if err != nil {
			return nil, err
		}
		switch kind {
		case "drop":
			if p.DropRate, err = kv.rate("rate"); err != nil {
				return nil, err
			}
			if err := kv.seed(p); err != nil {
				return nil, err
			}
		case "seed":
			if err := kv.seed(p); err != nil {
				return nil, err
			}
			if v, ok := kv.m["v"]; ok {
				s, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("faults: seed %q: %v", v, err)
				}
				p.Seed = s
				delete(kv.m, "v")
			}
		default:
			return nil, fmt.Errorf("faults: unknown clause %q (want drop or seed)", kind)
		}
		if err := kv.leftover(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// kvSet is one clause's key=value pairs; accessors delete consumed keys so
// leftover() can reject typos.
type kvSet struct {
	clause string
	m      map[string]string
}

func parseKV(clause, rest string) (*kvSet, error) {
	kv := &kvSet{clause: clause, m: map[string]string{}}
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return kv, nil
	}
	for _, pair := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("faults: %s: %q is not key=value", clause, pair)
		}
		key := strings.ToLower(strings.TrimSpace(k))
		if key == "" {
			return nil, fmt.Errorf("faults: %s: %q has an empty key", clause, pair)
		}
		// Reject duplicates instead of silently taking the last value: a spec
		// like rate=1e-6,rate=1e-3 is almost certainly an editing mistake.
		if _, dup := kv.m[key]; dup {
			return nil, fmt.Errorf("faults: %s: duplicate key %q", clause, key)
		}
		kv.m[key] = strings.TrimSpace(v)
	}
	return kv, nil
}

func (kv *kvSet) rate(key string) (float64, error) {
	v, ok := kv.m[key]
	if !ok {
		return 0, fmt.Errorf("faults: %s: missing %s=", kv.clause, key)
	}
	delete(kv.m, key)
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("faults: %s: %s=%q: %v", kv.clause, key, v, err)
	}
	return f, nil
}

// seed consumes an optional seed= key (allowed in the drop and seed clauses;
// last one wins).
func (kv *kvSet) seed(p *Plan) error {
	v, ok := kv.m["seed"]
	if !ok {
		return nil
	}
	delete(kv.m, "seed")
	s, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return fmt.Errorf("faults: %s: seed=%q: %v", kv.clause, v, err)
	}
	p.Seed = s
	return nil
}

func (kv *kvSet) leftover() error {
	for k := range kv.m {
		return fmt.Errorf("faults: %s: unknown key %q", kv.clause, k)
	}
	return nil
}
