package main

import (
	"strings"
	"sync/atomic"
	"time"

	"husgraph/internal/storage"
)

// tracedStore wraps the benchmark's storage.Store and, while on, times every
// read and write, counts calls and bytes, and records one span per call
// under the tracer's current iteration. Off, it only forwards.
type tracedStore struct {
	inner storage.Store
	tr    *tracer
	on    atomic.Bool

	readCalls, readBytes, readNs atomic.Int64
	writeCalls, writeBytes       atomic.Int64
	writeNs, writeSimNs          atomic.Int64
	ckptNs                       atomic.Int64
}

var _ storage.Store = (*tracedStore)(nil)

// storeCounters is a snapshot of a tracedStore's counters.
type storeCounters struct {
	readCalls, readBytes, readNs int64
	writeCalls, writeBytes       int64
	writeNs, ckptNs              int64
}

func (s *tracedStore) counters() storeCounters {
	if s == nil {
		return storeCounters{}
	}
	return storeCounters{
		readCalls: s.readCalls.Load(), readBytes: s.readBytes.Load(), readNs: s.readNs.Load(),
		writeCalls: s.writeCalls.Load(), writeBytes: s.writeBytes.Load(),
		writeNs: s.writeNs.Load(), ckptNs: s.ckptNs.Load(),
	}
}

func (c storeCounters) sub(o storeCounters) storeCounters {
	return storeCounters{
		readCalls: c.readCalls - o.readCalls, readBytes: c.readBytes - o.readBytes, readNs: c.readNs - o.readNs,
		writeCalls: c.writeCalls - o.writeCalls, writeBytes: c.writeBytes - o.writeBytes,
		writeNs: c.writeNs - o.writeNs, ckptNs: c.ckptNs - o.ckptNs,
	}
}

// writeSim returns the simulated device time charged by writes so far; nil
// stores (untraced runs) report zero.
func (s *tracedStore) writeSim() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.writeSimNs.Load())
}

func (s *tracedStore) read(call func() ([]byte, error)) ([]byte, error) {
	if !s.on.Load() {
		return call()
	}
	id := s.tr.id()
	start := time.Now()
	b, err := call()
	end := time.Now()
	s.readCalls.Add(1)
	s.readBytes.Add(int64(len(b)))
	s.readNs.Add(int64(end.Sub(start)))
	s.tr.add(id, s.tr.current.Load(), "storage.read", start, end)
	return b, err
}

// Put implements storage.Store.
func (s *tracedStore) Put(name string, data []byte) error {
	if !s.on.Load() {
		return s.inner.Put(name, data)
	}
	id := s.tr.id()
	start := time.Now()
	err := s.inner.Put(name, data)
	end := time.Now()
	d := int64(end.Sub(start))
	s.writeCalls.Add(1)
	s.writeBytes.Add(int64(len(data)))
	s.writeNs.Add(d)
	// Both substrates charge a Put as one sequential write of its length.
	s.writeSimNs.Add(int64(s.inner.Device().Profile().SeqTime(int64(len(data)))))
	spanName := "storage.write"
	if strings.HasPrefix(name, "aux/ckpt-") {
		s.ckptNs.Add(d)
		spanName = "core.checkpoint"
	}
	s.tr.add(id, s.tr.current.Load(), spanName, start, end)
	return err
}

// ReadAll implements storage.Store.
func (s *tracedStore) ReadAll(name string) ([]byte, error) {
	return s.read(func() ([]byte, error) { return s.inner.ReadAll(name) })
}

// ReadAllInto implements storage.Store.
func (s *tracedStore) ReadAllInto(name string, buf []byte) ([]byte, error) {
	return s.read(func() ([]byte, error) { return s.inner.ReadAllInto(name, buf) })
}

// ReadAt implements storage.Store.
func (s *tracedStore) ReadAt(name string, off, n int64) ([]byte, error) {
	return s.read(func() ([]byte, error) { return s.inner.ReadAt(name, off, n) })
}

// ReadAtInto implements storage.Store.
func (s *tracedStore) ReadAtInto(name string, off, n int64, buf []byte) ([]byte, error) {
	return s.read(func() ([]byte, error) { return s.inner.ReadAtInto(name, off, n, buf) })
}

// Size implements storage.Store.
func (s *tracedStore) Size(name string) (int64, error) { return s.inner.Size(name) }

// Delete implements storage.Store.
func (s *tracedStore) Delete(name string) error { return s.inner.Delete(name) }

// List implements storage.Store.
func (s *tracedStore) List() []string { return s.inner.List() }

// Device implements storage.Store: the wrapped store's device.
func (s *tracedStore) Device() *storage.Device { return s.inner.Device() }
