package server_test

import (
	"reflect"
	"strings"
	"testing"

	"smtdram/internal/addrmap"
	"smtdram/internal/core"
	"smtdram/internal/cpu"
	"smtdram/internal/dram"
	"smtdram/internal/memctrl"
	"smtdram/internal/server"
)

// TestSimRequestResolves is the one resolver's table: a request that names
// nothing but its applications is core.DefaultConfig field for field, every
// knob lands in the field the CLI flag of the same name sets, every
// unresolvable name is an error, and the two enum parsers this resolver
// brought with it accept exactly what their String prints, in any case.
func TestSimRequestResolves(t *testing.T) {
	apps := []string{"mcf", "ammp"}
	zero, err := server.SimRequest{Apps: apps}.Config()
	if err != nil {
		t.Fatal(err)
	}
	if want := core.DefaultConfig(apps...); !reflect.DeepEqual(zero, want) {
		t.Fatalf("zero-value request resolves to\n%+v\nwant core.DefaultConfig:\n%+v", zero, want)
	}

	warm, target, seed := uint64(0), uint64(1234), int64(7)
	for _, tc := range []struct {
		name string
		req  server.SimRequest
		edit func(*core.Config)
	}{
		{"mix", server.SimRequest{Mix: "4-MEM"}, func(c *core.Config) { *c = core.DefaultConfig("mcf", "ammp", "swim", "lucas") }},
		{"mix overrides apps", server.SimRequest{Mix: "2-MEM", Apps: []string{"gzip"}}, func(*core.Config) {}},
		{"channels", server.SimRequest{Apps: apps, Channels: 8, Gang: 2}, func(c *core.Config) { c.Mem.PhysChannels, c.Mem.Gang = 8, 2 }},
		{"dram", server.SimRequest{Apps: apps, DRAM: "RDRAM"}, func(c *core.Config) { c.Mem.Kind = core.RDRAM }},
		{"scheme", server.SimRequest{Apps: apps, Scheme: "Page"}, func(c *core.Config) { c.Mem.Scheme = addrmap.Page }},
		{"pagemode", server.SimRequest{Apps: apps, PageMode: "CLOSE"}, func(c *core.Config) { c.Mem.PageMode = dram.ClosePage }},
		{"policy", server.SimRequest{Apps: apps, Policy: "criticality-based"}, func(c *core.Config) { c.Mem.Policy = memctrl.CriticalityBased }},
		{"fetch", server.SimRequest{Apps: apps, Fetch: "coop"}, func(c *core.Config) { c.CPU.Policy = cpu.Coop }},
		{"counts", server.SimRequest{Apps: apps, Warmup: &warm, Target: &target, Seed: &seed},
			func(c *core.Config) { c.WarmupInstr, c.TargetInstr, c.Seed = 0, 1234, 7 }},
	} {
		got, err := tc.req.Config()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		want := core.DefaultConfig(apps...)
		tc.edit(&want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: resolved\n%+v\nwant\n%+v", tc.name, got, want)
		}
	}
	if cfg, err := (server.SimRequest{Apps: apps, Faults: "drop:rate=0.5,seed=3"}).Config(); err != nil || cfg.Faults == nil {
		t.Errorf("faults: plan %v, err %v", cfg.Faults, err)
	}

	for _, bad := range []server.SimRequest{
		{},
		{Mix: "bogus"},
		{Apps: []string{"nosuchapp"}},
		{Apps: apps, DRAM: "bogus"},
		{Apps: apps, Scheme: "bogus"},
		{Apps: apps, PageMode: "bogus"},
		{Apps: apps, Policy: "bogus"},
		{Apps: apps, Fetch: "bogus"},
		{Apps: apps, Faults: "bogus:rate=1"},
		{Apps: apps, Gang: 3}, // fails Validate: two channels do not gang by three
		{Apps: apps, Channels: 4, Faults: "channel-fail:ch=9,at=100"},
	} {
		if _, err := bad.Config(); err == nil {
			t.Errorf("%+v resolved without error", bad)
		}
	}

	for _, s := range []addrmap.Scheme{addrmap.Page, addrmap.XOR} {
		for _, name := range []string{s.String(), strings.ToUpper(s.String())} {
			if got, err := addrmap.ParseScheme(name); err != nil || got != s {
				t.Errorf("ParseScheme(%q) = %v, %v; want %v", name, got, err, s)
			}
		}
	}
	for _, m := range []dram.PageMode{dram.OpenPage, dram.ClosePage} {
		for _, name := range []string{m.String(), strings.ToUpper(m.String())} {
			if got, err := dram.ParsePageMode(name); err != nil || got != m {
				t.Errorf("ParsePageMode(%q) = %v, %v; want %v", name, got, err, m)
			}
		}
	}
	if _, err := addrmap.ParseScheme(""); err == nil {
		t.Error("ParseScheme accepted the empty name")
	}
	if _, err := dram.ParsePageMode("Scheme(9)"); err == nil {
		t.Error("ParsePageMode accepted a non-name")
	}
}
