package main

import (
	"math"
	"strings"
	"testing"

	"csmabw/internal/sim"
	"csmabw/internal/traffic"
)

func TestParseStation(t *testing.T) {
	r := sim.NewRand(1)
	end := sim.Second

	src, _, err := parseStation("cbr:2:1500", r, end)
	if err != nil {
		t.Fatal(err)
	}
	// 2e6/(1500*8) ~ 166.7 packets/s over 1s; the CBR generator emits a
	// packet at t=0, so the count rounds up.
	if arr := traffic.Collect(src); len(arr) != 167 {
		t.Errorf("cbr packets = %d, want 167", len(arr))
	}

	src, power, err := parseStation("poisson:4:576", r, end)
	if err != nil {
		t.Fatal(err)
	}
	arr := traffic.Collect(src)
	if len(arr) == 0 {
		t.Error("poisson produced nothing")
	}
	if power != 0 {
		t.Errorf("default power = %g, want 0", power)
	}
	_, power, err = parseStation("poisson:4:576:7.5", r, end)
	if err != nil {
		t.Fatal(err)
	}
	if power != 7.5 {
		t.Errorf("power = %g, want 7.5", power)
	}
	for _, a := range arr {
		if a.Size != 576 {
			t.Fatalf("size %d", a.Size)
		}
	}
}

func TestParseStationErrors(t *testing.T) {
	r := sim.NewRand(1)
	bad := []struct {
		spec string
		frag string
	}{
		{"cbr:2", "kind:rateMbps:size"},
		{"cbr:2:1500:x", "bad power"},
		{"cbr:2:1500:3:9", "kind:rateMbps:size"},
		{"cbr:x:1500", "bad rate"},
		{"cbr:0:1500", "bad rate"},
		{"cbr:NaN:1500", "bad rate"},
		{"cbr:Inf:1500", "bad rate"},
		{"poisson:+Inf:1500", "bad rate"},
		{"poisson:-Inf:1500", "bad rate"},
		{"cbr:1e9:1500", "under 1 ns"},
		{"cbr:2:zero", "bad size"},
		{"cbr:2:-5", "bad size"},
		{"warp:2:1500", "unknown kind"},
	}
	for _, tt := range bad {
		_, _, err := parseStation(tt.spec, r, sim.Second)
		if err == nil {
			t.Errorf("%q accepted", tt.spec)
			continue
		}
		if !strings.Contains(err.Error(), tt.frag) {
			t.Errorf("%q: error %q lacks %q", tt.spec, err, tt.frag)
		}
	}
}

func TestCheckDuration(t *testing.T) {
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		if checkDuration(d) == nil {
			t.Errorf("-duration %g accepted", d)
		}
	}
	if err := checkDuration(0.5); err != nil {
		t.Errorf("-duration 0.5 rejected: %v", err)
	}
}

func TestPhyFor(t *testing.T) {
	for _, name := range []string{"b11", "b11short", "g54", "a54"} {
		p, err := phyFor(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if p.Validate() != nil {
			t.Errorf("%s: invalid params", name)
		}
	}
	if _, err := phyFor("n600"); err == nil {
		t.Error("unknown PHY accepted")
	}
}
