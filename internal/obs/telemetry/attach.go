package telemetry

import (
	"fmt"

	"cycada/internal/farm"
	"cycada/internal/obs"
)

// AttachFarm wires a device farm into a telemetry server: the farm's
// scheduler counters and wall-clock histograms, every device's frame-health
// registries and flight recorder, per-device health gauges, and a /healthz
// verdict that degrades when no device can run sessions. When the server has
// a window set, every registry is tracked in it (TrackFarm).
func AttachFarm(srv *Server, f *farm.Farm) {
	srv.AddCounters("farm", f.Counters())
	srv.AddHistograms("farm", f.Histograms())
	for i := 0; i < f.Devices(); i++ {
		d := f.Device(i)
		reg := fmt.Sprintf("dev%d", d.ID)
		srv.AddHistograms(reg, d.Hists)
		srv.AddCounters(reg, d.Ctrs)
		srv.AddFlight(reg, d.Flight)
	}
	if win := srv.Windows(); win != nil {
		TrackFarm(win, f)
	}
	srv.AddGauges(func() []Gauge { return farmGauges(f) })
	srv.SetHealth(func() (bool, any) {
		st := f.Stats()
		healthy := 0
		for _, d := range st.Devices {
			if d.State == "healthy" {
				healthy++
			}
		}
		return healthy > 0, st
	})
}

// TrackFarm tracks every registry of the farm in win: its scheduler
// counters and wall-clock histograms and each device's frame-health
// registries. Same-named device series sum into one farm-wide window.
func TrackFarm(win *obs.Windows, f *farm.Farm) {
	win.TrackCounters(f.Counters())
	win.Track(f.Histograms())
	for i := 0; i < f.Devices(); i++ {
		d := f.Device(i)
		win.Track(d.Hists)
		win.TrackCounters(d.Ctrs)
	}
}

// farmGauges renders one scrape's worth of farm health gauges.
func farmGauges(f *farm.Farm) []Gauge {
	st := f.Stats()
	gs := []Gauge{
		{Name: "cycada_farm_queue_depth", Help: "Admitted-but-not-running sessions across the farm.", Value: float64(st.QueueDepth)},
		{Name: "cycada_farm_in_flight", Help: "Session bodies executing right now.", Value: float64(st.InFlight)},
		{Name: "cycada_farm_backlog", Help: "Admitted sessions with no healthy device yet.", Value: float64(st.Backlog)},
		{Name: "cycada_farm_sessions_submitted", Help: "Sessions admitted since boot.", Value: float64(st.Submitted)},
		{Name: "cycada_farm_sessions_completed", Help: "Sessions finished successfully since boot.", Value: float64(st.Completed)},
		{Name: "cycada_farm_sessions_failed", Help: "Sessions finished in error since boot.", Value: float64(st.Failed)},
	}
	for _, d := range st.Devices {
		dev := fmt.Sprintf("%d", d.ID)
		for _, state := range []string{"healthy", "quarantined", "retired"} {
			v := 0.0
			if d.State == state {
				v = 1
			}
			gs = append(gs, Gauge{
				Name:   "cycada_farm_device_state",
				Help:   "1 for the device's current health state, 0 otherwise.",
				Labels: []Label{{"device", dev}, {"state", state}},
				Value:  v,
			})
		}
		gs = append(gs,
			Gauge{Name: "cycada_farm_device_sessions", Help: "Attempts finished on the device slot.", Labels: []Label{{"device", dev}}, Value: float64(d.Sessions)},
			Gauge{Name: "cycada_farm_device_failures", Help: "Failed attempts on the device slot.", Labels: []Label{{"device", dev}}, Value: float64(d.Failures)},
			Gauge{Name: "cycada_farm_device_reboots", Help: "Fresh stacks booted into the slot.", Labels: []Label{{"device", dev}}, Value: float64(d.Reboots)},
			Gauge{Name: "cycada_farm_device_queued", Help: "Sessions waiting in the slot's queue.", Labels: []Label{{"device", dev}}, Value: float64(d.Queued)},
		)
	}
	return gs
}

// AttachDefaults exports the process-wide default registries (what a
// single-stack tool like cycadareplay records into) under the empty reg
// label, tracks them in the server's window set, and subscribes the event
// stream to the default flight recorder.
func AttachDefaults(srv *Server) {
	srv.AddCounters("", obs.DefaultCounters)
	srv.AddHistograms("", obs.DefaultHistograms)
	srv.AddFlight("default", obs.DefaultFlight)
	if win := srv.Windows(); win != nil {
		win.Track(obs.DefaultHistograms)
		win.TrackCounters(obs.DefaultCounters)
	}
}
