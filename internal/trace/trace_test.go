package trace

import (
	"bytes"
	"io"
	"testing"

	"csmabw/internal/mac"
	"csmabw/internal/phy"
	"csmabw/internal/sim"
	"csmabw/internal/traffic"
)

func TestRoundTrip(t *testing.T) {
	events := []mac.Event{
		{At: 1000, Kind: mac.EvTxStart, Station: 0, Size: 1500, Probe: true, Index: 0, AC: phy.ACVoice},
		{At: 2000, Kind: mac.EvSuccess, Station: 0, Size: 1500, Probe: true, Index: 0, AC: phy.ACVoice},
		{At: 3000, Kind: mac.EvCollision, Station: 1, Size: 576, Index: -1, Retries: 2, AC: phy.ACBackground},
		{At: 4000, Kind: mac.EvDrop, Station: 1, Size: 576, Index: -1, Retries: 7},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, ev := range events {
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Events() != len(events) {
		t.Errorf("Events() = %d", w.Events())
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events", len(got))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d: %+v != %+v", i, got[i], events[i])
		}
	}
}

func TestEmptyTraceHasHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("decoded %d events from empty trace", len(got))
	}
}

func TestBadMagic(t *testing.T) {
	r := NewReader(bytes.NewBufferString("NOTATRACEFILE..."))
	if _, err := r.Next(); err != ErrBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(mac.Event{At: 1, Kind: mac.EvSuccess}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	r := NewReader(bytes.NewReader(trunc))
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Errorf("truncated record: err = %v", err)
	}
}

func TestInvalidKindRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(mac.Event{At: 1, Kind: 99}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewReader(&buf).Next(); err == nil {
		t.Error("invalid kind accepted")
	}
}

// End to end: hook the writer into a live simulation, then reconstruct
// dispersion from the trace alone.
func TestTraceFromSimulation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	hook, hookErr := w.Hook()

	cross := traffic.NewPoisson(sim.NewRand(1), 3e6, 1500, 0, sim.Second)
	probeTr := traffic.NewTrain(20, 2400*sim.Microsecond, 1500, 200*sim.Millisecond) // 5 Mb/s
	cfg := mac.Config{
		Phy:     phy.B11(),
		Seed:    9,
		OnEvent: hook,
		Stations: []mac.StationConfig{
			{Source: probeTr},
			{Source: cross},
		},
	}
	res, err := mac.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *hookErr != nil {
		t.Fatal(*hookErr)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	sum, err := Summarize(&buf)
	if err != nil {
		t.Fatal(err)
	}
	wantDelivered := res.Stats[0].Delivered + res.Stats[1].Delivered
	if sum.Successes != wantDelivered {
		t.Errorf("trace has %d successes, engine delivered %d", sum.Successes, wantDelivered)
	}
	if len(sum.ProbeDepartures) != 20 {
		t.Errorf("trace has %d probe departures, want 20", len(sum.ProbeDepartures))
	}
	// Dispersion from the trace matches the engine's frames.
	probes := res.ProbeFrames(0)
	for i, f := range probes {
		if sum.ProbeDepartures[i] != f.Departed {
			t.Fatalf("probe %d: trace %v vs engine %v", i, sum.ProbeDepartures[i], f.Departed)
		}
	}
	if sum.PerStation[0] != res.Stats[0].Delivered {
		t.Errorf("station 0: trace %d vs engine %d", sum.PerStation[0], res.Stats[0].Delivered)
	}
	var wantBits int64
	for s := range res.Frames {
		for _, f := range res.Frames[s] {
			wantBits += int64(f.Size) * 8
		}
	}
	if sum.PayloadBits != wantBits {
		t.Errorf("trace bits %d vs engine %d", sum.PayloadBits, wantBits)
	}
}

func TestSummarizeCollisionsAndDrops(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	p := phy.B11()
	p.RetryLimit = 1
	arr := []traffic.Arrival{{At: sim.Millisecond, Size: 1500, Index: -1}}
	hook, _ := w.Hook()
	_, err := mac.Run(mac.Config{
		Phy:      p,
		Seed:     2,
		OnEvent:  hook,
		Stations: []mac.StationConfig{{Source: traffic.FromSchedule(arr)}, {Source: traffic.FromSchedule(arr)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	sum, err := Summarize(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Collisions != 2 || sum.Drops != 2 || sum.Successes != 0 {
		t.Errorf("summary %+v, want 2 collisions / 2 drops / 0 successes", sum)
	}
}

func TestInvalidACRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(mac.Event{At: 1, Kind: mac.EvSuccess, AC: phy.AccessCategory(9)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewReader(&buf).Next(); err == nil {
		t.Error("invalid access category accepted")
	}
}

// TestPerACSummary runs an EDCA cell through the trace pipeline and
// checks the per-category aggregation against the engine's own stats:
// counts match per AC, and the mean service delay of an uncontested
// category equals its data airtime.
func TestPerACSummary(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	hook, hookErr := w.Hook()
	p := phy.B11()
	end := 300 * sim.Millisecond
	cfg := mac.Config{
		Phy:     p,
		Seed:    5,
		Horizon: end,
		OnEvent: hook,
		Stations: []mac.StationConfig{
			{AC: phy.ACVoice, Source: traffic.NewCBR(2e6, 1500, 0, end)},
			{AC: phy.ACBackground, Source: traffic.NewCBR(2e6, 1500, 0, end)},
		},
	}
	res, err := mac.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *hookErr != nil {
		t.Fatal(*hookErr)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	sum, err := Summarize(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.PerAC[phy.ACVoice].Successes; got != res.Stats[0].Delivered {
		t.Errorf("AC_VO successes %d, engine delivered %d", got, res.Stats[0].Delivered)
	}
	if got := sum.PerAC[phy.ACBackground].Successes; got != res.Stats[1].Delivered {
		t.Errorf("AC_BK successes %d, engine delivered %d", got, res.Stats[1].Delivered)
	}
	if got := sum.PerAC[phy.ACVoice].Collisions; got != res.Stats[0].Collisions {
		t.Errorf("AC_VO collisions %d, engine %d", got, res.Stats[0].Collisions)
	}
	// Every delivery's service delay is at least the data airtime, and
	// an RTS-free uncontested delivery is exactly that, so the mean is
	// bounded below by it.
	for _, ac := range []phy.AccessCategory{phy.ACVoice, phy.ACBackground} {
		if s := sum.PerAC[ac]; s.Successes > 0 && s.MeanService() < p.DataTxTime(1500) {
			t.Errorf("%v mean service %v below one data airtime %v", ac, s.MeanService(), p.DataTxTime(1500))
		}
	}
	if (ACSummary{}).MeanService() != 0 {
		t.Error("empty ACSummary MeanService not 0")
	}
}

func TestEventKindString(t *testing.T) {
	names := map[mac.EventKind]string{
		mac.EvTxStart:    "txstart",
		mac.EvSuccess:    "success",
		mac.EvCollision:  "collision",
		mac.EvDrop:       "drop",
		mac.EventKind(0): "unknown",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}
