package farm_test

import (
	"fmt"
	"runtime"
	"testing"

	"cycada/internal/farm"
	"cycada/internal/replay"
)

// maxRetainedPerSession bounds the heap a recycled device may keep per
// session it ran: app processes, userspaces and IOSurface buffers must all
// go when the session ends.
const maxRetainedPerSession = 64 << 10

// TestFarmRecycledDevicesDoNotLeak runs 40 verified golden replays on 2
// devices and checks that the live heap after GC grows by at most
// maxRetainedPerSession per session.
func TestFarmRecycledDevicesDoNotLeak(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 40 replays")
	}
	traces := []*replay.Trace{golden(t, "passmark-2d"), golden(t, "webkit-tiles"), golden(t, "passmark-3d")}
	f := farm.New(farm.Config{Devices: 2, MaxQueue: 64})
	defer f.Close()
	run := func(prefix string, n int) {
		t.Helper()
		sessions := make([]*farm.Session, 0, n)
		for i := 0; i < n; i++ {
			tr := traces[i%len(traces)]
			s, err := f.Submit(farm.SessionSpec{Name: fmt.Sprintf("%s-%d-%s", prefix, i, tr.Label), Trace: tr, Verify: true})
			if err != nil {
				t.Fatalf("Submit %s %d: %v", prefix, i, err)
			}
			sessions = append(sessions, s)
		}
		for _, s := range sessions {
			if res := s.Result(); res.Err != nil {
				t.Fatalf("session %s: %v", res.Name, res.Err)
			}
		}
	}
	// Warm up both devices with every trace so caches and registries that
	// legitimately persist across sessions are already populated.
	run("warm", 2*len(traces))
	before := liveHeap()
	const sessions = 40
	run("leak", sessions)
	after := liveHeap()
	per := (int64(after) - int64(before)) / sessions
	t.Logf("live heap %d -> %d bytes: %d bytes retained per session", before, after, per)
	if per > maxRetainedPerSession {
		t.Fatalf("devices retain %d bytes per session, want <= %d", per, maxRetainedPerSession)
	}
}

func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
