package main

import (
	"path/filepath"
	"testing"
	"time"

	"cycada/internal/android/egl"
	"cycada/internal/farm"
	"cycada/internal/obs"
	"cycada/internal/obs/telemetry"
	"cycada/internal/replay"
)

// TestLoadSustainsSessions runs the farm-backed load generator briefly on
// two devices and checks it completes sessions, reports coherent
// statistics, and feeds the farm registries a live scrape would read.
func TestLoadSustainsSessions(t *testing.T) {
	tr := goldenTrace(t, "passmark-2d")
	f := farm.New(farm.Config{Devices: 2})
	defer f.Close()

	res, err := runLoad(f, tr, 300*time.Millisecond, 0)
	if err != nil {
		t.Fatalf("runLoad: %v", err)
	}
	if res.Sessions < 1 {
		t.Fatalf("sessions = %d, want >= 1", res.Sessions)
	}
	if res.PerSec <= 0 {
		t.Fatalf("rate = %v, want > 0", res.PerSec)
	}
	if res.Frames < res.Sessions {
		t.Fatalf("frames = %d < sessions = %d; every session presents at least once", res.Frames, res.Sessions)
	}
	if res.FrameP99 < res.FrameP50 || res.FrameMax < res.FrameP99 {
		t.Fatalf("percentiles out of order: p50=%v p99=%v max=%v", res.FrameP50, res.FrameP99, res.FrameMax)
	}
	if h, ok := f.Histograms().Lookup(farm.SessionRanHist); !ok || h.Count() != res.Sessions {
		t.Fatalf("farm sessions histogram = %v (ok=%v), want count %d", h, ok, res.Sessions)
	}
	if st := f.Stats(); int64(st.Completed) != res.Sessions || st.Failed != 0 {
		t.Fatalf("farm stats completed=%d failed=%d, want %d and 0", st.Completed, st.Failed, res.Sessions)
	}
}

// TestLoadWindowedView runs the load generator on one device with a window
// set tracking the farm registries, as cycadareplay load wires the
// telemetry server: the windowed frame and session counts must equal the
// reported ones.
func TestLoadWindowedView(t *testing.T) {
	tr := goldenTrace(t, "webkit-tiles")
	f := farm.New(farm.Config{Devices: 1})
	defer f.Close()
	win := obs.NewWindows(50*time.Millisecond, 64)
	telemetry.TrackFarm(win, f)
	win.Start()
	defer win.Stop()

	res, err := runLoad(f, tr, 300*time.Millisecond, 0)
	if err != nil {
		t.Fatalf("runLoad: %v", err)
	}
	win.Rotate() // capture the tail interval deterministically
	if ws, ok := win.Hist(egl.PresentHistName, time.Hour); !ok || ws.Count != res.Frames {
		t.Fatalf("windowed frames = %+v ok=%v, want count %d", ws, ok, res.Frames)
	}
	if ws, ok := win.Hist(farm.SessionRanHist, time.Hour); !ok || ws.Count != res.Sessions {
		t.Fatalf("windowed sessions = %+v ok=%v, want count %d", ws, ok, res.Sessions)
	}
}

// TestLoadAbortsOnFailedSession: a session that fails (here every one: the
// trace's screen does not match the devices') ends the run with its error.
func TestLoadAbortsOnFailedSession(t *testing.T) {
	tr := goldenTrace(t, "passmark-2d")
	tr.ScreenW, tr.ScreenH = tr.ScreenW/2, tr.ScreenH/2
	f := farm.New(farm.Config{Devices: 2})
	defer f.Close()
	if res, err := runLoad(f, tr, time.Minute, 0); err == nil {
		t.Fatalf("runLoad = %+v, want the failed session's error", res)
	}
}

func goldenTrace(t *testing.T, name string) *replay.Trace {
	t.Helper()
	tr, err := replay.ReadFile(filepath.Join("..", "..", "internal", "replay", "testdata", name+".cytr"))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}
