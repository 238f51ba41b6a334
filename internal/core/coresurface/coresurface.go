// Package coresurface implements LinuxCoreSurface — the paper's
// reverse-engineered reimplementation of the iOS IOCoreSurface kernel
// framework inside the Android Linux kernel (§6, Figure 3). It registers
// under the same Mach service name the iOS IOSurface library talks to, and
// backs every IOSurface with an Android GraphicBuffer allocated from the
// gralloc driver, so surfaces stay zero-copy sharable with Android GLES.
package coresurface

import (
	"fmt"
	"slices"
	"sync"

	"cycada/internal/android/gralloc"
	"cycada/internal/ios/iokit"
	"cycada/internal/sim/kernel"
)

// Module is the LinuxCoreSurface kernel module.
type Module struct {
	dev string // gralloc device path

	mu     sync.Mutex
	nextID uint64
	surfs  map[uint64]surface
}

// surface is one live IOSurface: its backing GraphicBuffer and the PID of
// the process that created it.
type surface struct {
	buf *gralloc.Buffer
	pid int
}

// New creates the module; register it with
// kernel.RegisterMachService(iokit.CoreSurfaceService, m) on the Cycada
// kernel.
func New() *Module {
	return &Module{dev: gralloc.DevicePath, surfs: map[uint64]surface{}}
}

// Buffer returns the GraphicBuffer backing a surface. Cycada's userspace
// IOSurfaceCreate interposition uses it to connect the surface to the
// Android-side buffer management (§6.1).
func (m *Module) Buffer(id uint64) (*gralloc.Buffer, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.surfs[id]
	return s.buf, ok
}

// Live reports live surfaces (leak tests).
func (m *Module) Live() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.surfs)
}

// ReleaseProcess drops every surface the process pid created and has not
// released, and returns their backing GraphicBuffers for the caller to free
// in gralloc. It is the module's share of process exit, so it makes no
// syscall and charges no virtual time.
func (m *Module) ReleaseProcess(pid int) []*gralloc.Buffer {
	m.mu.Lock()
	defer m.mu.Unlock()
	var ids []uint64
	for id, s := range m.surfs {
		if s.pid == pid {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	bufs := make([]*gralloc.Buffer, 0, len(ids))
	for _, id := range ids {
		bufs = append(bufs, m.surfs[id].buf)
		delete(m.surfs, id)
	}
	return bufs
}

// MachCall implements kernel.MachService with the IOCoreSurface message set.
func (m *Module) MachCall(t *kernel.Thread, msgID uint32, body any) (any, error) {
	switch msgID {
	case iokit.MsgSurfaceCreate:
		req, ok := body.(iokit.CreateRequest)
		if !ok {
			return nil, fmt.Errorf("LinuxCoreSurface: bad create body %T", body)
		}
		// Allocate the backing GraphicBuffer through the gralloc driver —
		// the same allocation path Android's own graphics memory uses.
		r, err := t.Ioctl(m.dev, gralloc.CmdAlloc, gralloc.AllocRequest{W: req.W, H: req.H, Format: req.Format})
		if err != nil {
			return nil, fmt.Errorf("LinuxCoreSurface: backing allocation: %w", err)
		}
		buf := r.(*gralloc.Buffer)
		m.mu.Lock()
		m.nextID++
		id := m.nextID
		m.surfs[id] = surface{buf: buf, pid: t.Process().PID()}
		m.mu.Unlock()
		return iokit.CreateReply{ID: id, Img: buf.Img}, nil

	case iokit.MsgSurfaceLock:
		buf, err := m.lookup(body)
		if err != nil {
			return nil, err
		}
		// The CPU lock fails while the buffer is associated with a GLES
		// texture — the Android limitation Cycada's multi diplomats must
		// dance around before this call (§6.2).
		if err := buf.LockCPU(); err != nil {
			return nil, fmt.Errorf("LinuxCoreSurface: %w", err)
		}
		return nil, nil

	case iokit.MsgSurfaceUnlock:
		buf, err := m.lookup(body)
		if err != nil {
			return nil, err
		}
		return nil, buf.UnlockCPU()

	case iokit.MsgSurfaceRelease:
		id, ok := body.(uint64)
		if !ok {
			return nil, fmt.Errorf("LinuxCoreSurface: bad release body %T", body)
		}
		m.mu.Lock()
		s, ok := m.surfs[id]
		if ok {
			delete(m.surfs, id)
		}
		m.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("LinuxCoreSurface: release of unknown surface %d", id)
		}
		if _, err := t.Ioctl(m.dev, gralloc.CmdFree, s.buf.ID); err != nil {
			return nil, fmt.Errorf("LinuxCoreSurface: freeing backing buffer: %w", err)
		}
		return nil, nil

	default:
		return nil, fmt.Errorf("LinuxCoreSurface: unknown message %#x", msgID)
	}
}

func (m *Module) lookup(body any) (*gralloc.Buffer, error) {
	id, ok := body.(uint64)
	if !ok {
		return nil, fmt.Errorf("LinuxCoreSurface: bad surface id %T", body)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.surfs[id]
	if !ok {
		return nil, fmt.Errorf("LinuxCoreSurface: unknown surface %d", id)
	}
	return s.buf, nil
}
