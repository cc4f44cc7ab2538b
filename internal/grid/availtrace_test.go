package grid

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"botgrid/internal/des"
	"botgrid/internal/rng"
)

func TestRecordAndReplayAvailability(t *testing.T) {
	cfg := DefaultConfig(Hom, LowAvail)
	cfg.TotalPower = 100 // 10 machines

	// Record a stochastic run.
	src := Build(cfg, rng.New(1))
	e1 := des.New()
	counted := newUpTimer(e1, src.NumMachines())
	rec := NewAvailRecorder(e1, counted)
	src.Start(e1, rng.New(2), rec)
	e1.RunUntil(50000)
	events := rec.Events()
	if len(events) == 0 {
		t.Fatal("no availability events recorded")
	}
	if counted.fails == 0 {
		t.Fatal("recorder did not forward to inner listener")
	}

	// Replay into a fresh grid: machine states must match at the end.
	dst := Build(cfg, rng.New(1))
	e2 := des.New()
	replayed := newUpTimer(e2, dst.NumMachines())
	if err := dst.Replay(e2, events, replayed); err != nil {
		t.Fatal(err)
	}
	e2.RunUntil(50000)
	if replayed.fails != counted.fails || replayed.repairs != counted.repairs {
		t.Fatalf("replay counts %d/%d, want %d/%d",
			replayed.fails, replayed.repairs, counted.fails, counted.repairs)
	}
	for i := range src.Machines {
		if src.Machines[i].Up() != dst.Machines[i].Up() {
			t.Fatalf("machine %d final state differs", i)
		}
		a := counted.availability(src.Machines[i])
		b := replayed.availability(dst.Machines[i])
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("machine %d availability %v vs %v", i, a, b)
		}
	}
}

func TestReplayValidation(t *testing.T) {
	g := NewCustom(DefaultConfig(Hom, AlwaysUp), []float64{10, 10})
	e := des.New()
	cases := []struct {
		name   string
		events []AvailEvent
	}{
		{"bad machine", []AvailEvent{{Time: 1, Machine: 5, Up: false}}},
		{"out of order", []AvailEvent{{Time: 5, Machine: 0, Up: false}, {Time: 1, Machine: 1, Up: false}}},
		{"no alternation", []AvailEvent{{Time: 1, Machine: 0, Up: true}}},
		{"double fail", []AvailEvent{{Time: 1, Machine: 0, Up: false}, {Time: 2, Machine: 0, Up: false}}},
	}
	for _, c := range cases {
		if err := g.Replay(e, c.events, nil); err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
	}
	// A valid trace schedules cleanly.
	ok := []AvailEvent{
		{Time: 1, Machine: 0, Up: false},
		{Time: 2, Machine: 0, Up: true},
		{Time: 2, Machine: 1, Up: false},
	}
	if err := g.Replay(e, ok, nil); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if !g.Machines[0].Up() || g.Machines[1].Up() {
		t.Fatal("replayed states wrong")
	}
}

func TestAvailTraceSerialization(t *testing.T) {
	events := []AvailEvent{
		{Time: 1.5, Machine: 3, Up: false},
		{Time: 2.25, Machine: 3, Up: true},
	}
	var buf bytes.Buffer
	if err := WriteAvailTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAvailTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0] != events[0] || back[1] != events[1] {
		t.Fatalf("round trip = %+v", back)
	}
	if _, err := ReadAvailTrace(strings.NewReader("junk\n")); err == nil {
		t.Fatal("garbage accepted")
	}
	empty, err := ReadAvailTrace(strings.NewReader("\n"))
	if err != nil || len(empty) != 0 {
		t.Fatalf("blank trace: %v %v", empty, err)
	}
}
