package obs

import (
	"strings"
	"testing"
)

const validExposition = `# HELP smtdram_jobs_accepted_total Jobs admitted.
# TYPE smtdram_jobs_accepted_total counter
smtdram_jobs_accepted_total 42
# TYPE smtdram_queue_depth gauge
smtdram_queue_depth 3
# TYPE smtdram_job_latency_served_us histogram
smtdram_job_latency_served_us_bucket{le="10"} 1
smtdram_job_latency_served_us_bucket{le="100"} 4
smtdram_job_latency_served_us_bucket{le="+Inf"} 5
smtdram_job_latency_served_us_sum 321
smtdram_job_latency_served_us_count 5
`

// TestParsePrometheusValid accepts a well-formed exposition and returns its
// families with values and bucket series intact.
func TestParsePrometheusValid(t *testing.T) {
	fams, err := ParsePrometheus(strings.NewReader(validExposition))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 3 {
		t.Fatalf("parsed %d families, want 3", len(fams))
	}
	c := fams["smtdram_jobs_accepted_total"]
	if c == nil || c.Type != "counter" || c.Samples["smtdram_jobs_accepted_total"] != 42 {
		t.Fatalf("counter family = %+v", c)
	}
	h := fams["smtdram_job_latency_served_us"]
	if h == nil || h.Type != "histogram" {
		t.Fatalf("histogram family = %+v", h)
	}
	if len(h.BucketLe) != 3 || h.BucketLe[2] != "+Inf" || h.BucketCount[2] != 5 {
		t.Fatalf("bucket series = %v %v", h.BucketLe, h.BucketCount)
	}
	if h.Sum != 321 || h.Count != 5 {
		t.Fatalf("sum/count = %g/%g", h.Sum, h.Count)
	}
}

// TestParsePrometheusViolations: each class of format breakage is rejected
// with an error mentioning the offense.
func TestParsePrometheusViolations(t *testing.T) {
	cases := []struct {
		name, input, wantErr string
	}{
		{
			"sample without TYPE",
			"smtdram_x_total 1\n",
			"no preceding TYPE",
		},
		{
			"unknown metric type",
			"# TYPE smtdram_x widget\nsmtdram_x 1\n",
			"unknown metric type",
		},
		{
			"duplicate TYPE",
			"# TYPE a counter\na 1\n# TYPE a counter\n",
			"duplicate TYPE",
		},
		{
			"interleaved sample",
			"# TYPE a counter\n# TYPE b counter\na 1\n",
			"interleaved",
		},
		{
			"duplicate sample",
			"# TYPE a counter\na 1\na 2\n",
			"duplicate sample",
		},
		{
			"illegal metric name",
			"# TYPE bad-name counter\nbad-name 1\n",
			"illegal rune",
		},
		{
			"unparsable value",
			"# TYPE a gauge\na forty\n",
			"unparsable sample value",
		},
		{
			"negative counter",
			"# TYPE a counter\na -1\n",
			"negative",
		},
		{
			"histogram without buckets",
			"# TYPE h histogram\nh_sum 1\nh_count 1\n",
			"no buckets",
		},
		{
			"histogram missing +Inf",
			"# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_sum 1\nh_count 1\n",
			"want +Inf",
		},
		{
			"non-cumulative buckets",
			"# TYPE h histogram\nh_bucket{le=\"10\"} 5\nh_bucket{le=\"20\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
			"not cumulative",
		},
		{
			"bucket bounds not ascending",
			"# TYPE h histogram\nh_bucket{le=\"20\"} 1\nh_bucket{le=\"10\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
			"not ascending",
		},
		{
			"missing _count",
			"# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\n",
			"missing _sum or _count",
		},
		{
			"+Inf disagrees with _count",
			"# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 5\n",
			"!= _count",
		},
		{
			"bucket without le label",
			"# TYPE h histogram\nh_bucket{job=\"x\"} 1\n",
			"without le label",
		},
		{
			"zero count non-zero sum",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 0\nh_sum 7\nh_count 0\n",
			"zero count",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParsePrometheus(strings.NewReader(tc.input))
			if err == nil {
				t.Fatalf("accepted invalid exposition:\n%s", tc.input)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestParsePrometheusOverDaemonRegistry belongs in the server tests (it needs
// a live registry); here we only pin down that HELP lines and blank lines are
// tolerated, since WritePrometheus emits them.
func TestParsePrometheusTolerance(t *testing.T) {
	in := "\n# HELP a something helpful\n# TYPE a counter\na 1\n\n"
	if _, err := ParsePrometheus(strings.NewReader(in)); err != nil {
		t.Fatalf("HELP/blank lines rejected: %v", err)
	}
}
