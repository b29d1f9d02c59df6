package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promName sanitizes a registry metric name into the Prometheus exposition
// alphabet ([a-zA-Z0-9_:]): the registry's dotted names ("go.goroutines")
// become underscored ("go_goroutines"), and any other illegal rune is
// replaced with '_'. A leading digit gains a '_' prefix.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Label is one constant label attached to every sample of a labeled render —
// fleet deployments stamp node_id and role so multi-node scrapes stay
// distinguishable.
type Label struct {
	Key, Val string
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): every gauge as a gauge evaluated now, every counter
// as a counter, and every histogram as the cumulative _bucket/_sum/_count
// triplet. namespace, when non-empty, prefixes each
// metric name ("smtdram" -> "smtdram_jobs_accepted_total"). labels, when
// non-empty, ride on every sample; histogram buckets merge them with their
// `le` label. Output order is registration order, so two renders of the same
// registry diff cleanly.
//
// Counter reads are atomic, so concurrent increments never race the render.
// Gauges and histograms stay single-writer: callers scraping a registry whose
// gauge state or histograms another goroutine mutates (the serving daemon)
// must hold their own lock around both the mutation and the render, as the
// server's metricsMu does.
func (r *Registry) WritePrometheus(w io.Writer, namespace string, labels []Label) error {
	if r == nil {
		return nil
	}
	prefix := ""
	if namespace != "" {
		prefix = promName(namespace) + "_"
	}
	// ls is the rendered label set for scalar samples ("" or `{k="v",...}`);
	// lsIn is the same pairs positioned inside a histogram bucket's braces
	// ("" or `k="v",...` followed by ","), so `le` merges in after them.
	var ls, lsIn string
	if len(labels) > 0 {
		var b strings.Builder
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s=%q", promName(l.Key), l.Val)
		}
		lsIn = b.String() + ","
		ls = "{" + b.String() + "}"
	}
	for _, g := range r.gauges {
		name := prefix + promName(g.name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s%s %s\n", name, name, ls, promFloat(g.f())); err != nil {
			return err
		}
	}
	for _, c := range r.counters {
		name := prefix + promName(c.name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s%s %d\n", name, name, ls, c.Value()); err != nil {
			return err
		}
	}
	for _, h := range r.hists {
		name := prefix + promName(h.name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		var cum uint64
		for i, bound := range h.bounds {
			cum += h.counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"%d\"} %d\n", name, lsIn, bound, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n%s_sum%s %d\n%s_count%s %d\n",
			name, lsIn, h.n, name, ls, h.sum, name, ls, h.n); err != nil {
			return err
		}
	}
	return nil
}
