package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"

	"cofs/internal/obs"
)

// Layers of the self-time partition. Every virtual nanosecond of a
// measured call lands in exactly one: the layer of the innermost span
// open at that instant, below the call's posix.<kind> root span.
const (
	lVFS        = iota // posix.*: FUSE crossings, copies, dcache walk
	lCoreClient        // cofs.*, op.*: placement, buckets, handles, routing
	lRPCSend           // rpc.send: request transfer
	lRPCQueue          // rpc.queue: wait for a service worker
	lRPCServe          // rpc.serve: service CPU and DB ops
	lRPCRecv           // rpc.recv: reply transfer
	l2PC               // 2pc.*: two-phase coordination
	lLockWait          // lock.wait: row-lock wait
	lWALCommit         // wal.commit
	lWALSync           // wal.sync
	lPFSMeta           // pfs.* metadata calls
	lPFSData           // pfs.read/write/fsync and flushing releases
	lOther             // any other span (standby, reshard): 0 here
	nLayers
)

var layerNames = [nLayers]string{
	"vfs", "core.client", "rpc.send", "rpc.queue", "rpc.serve", "rpc.recv",
	"2pc", "lock.wait", "wal.commit", "wal.sync", "pfs.meta", "pfs.data", "other",
}

func layerOf(name string) int {
	switch {
	case strings.HasPrefix(name, "posix."):
		return lVFS
	case strings.HasPrefix(name, "cofs."), strings.HasPrefix(name, "op."):
		return lCoreClient
	case name == "rpc.send":
		return lRPCSend
	case name == "rpc.queue":
		return lRPCQueue
	case name == "rpc.serve":
		return lRPCServe
	case name == "rpc.recv":
		return lRPCRecv
	case strings.HasPrefix(name, "2pc."):
		return l2PC
	case name == "lock.wait":
		return lLockWait
	case name == "wal.commit":
		return lWALCommit
	case name == "wal.sync":
		return lWALSync
	case name == "pfs.read", name == "pfs.write", name == "pfs.fsync", name == "pfs.flush":
		return lPFSData
	case strings.HasPrefix(name, "pfs."):
		return lPFSMeta
	}
	return lOther
}

// opTrace is one measured call as the trace saw it.
type opTrace struct {
	kind   string
	dur    int64 // virtual ns
	layers [nLayers]int64
	// twoPC is the inclusive time of the call's outermost 2pc.* spans,
	// peer RPCs, lock waits and WAL commits inside them included.
	twoPC int64
}

// attribution is the per-layer reading of one traced run.
type attribution struct {
	ops []opTrace
	// flushNS is the background wal.flush time that started at or after
	// the measured window opened.
	flushNS int64
}

type openSpan struct {
	name  string
	layer int
	start int64
	kids  int64 // total duration of finished children
}

// attributor consumes the tracer's JSONL export line by line, so the
// export is never held in memory. Events of one track are contiguous
// and in time order; the attributor keeps one stack for the current
// track.
type attributor struct {
	from    int64 // measured window start, virtual ns
	a       attribution
	tid     int64
	lastTS  int64
	stack   []openSpan
	root    *opTrace
	twoPC   int // open 2pc.* spans on the stack
	partial []byte
	err     error
}

// attribute streams tr's JSONL export through an attributor and checks
// every measured call: each span lies inside its parent, no child time
// exceeds its parent's, and the layer self times of a call sum to its
// posix.* span exactly, in integer virtual ns.
func attribute(tr *obs.Tracer, from time.Duration) (*attribution, error) {
	at := &attributor{from: int64(from), tid: -1}
	if err := tr.WriteJSONL(at); err != nil {
		return nil, err
	}
	if at.err == nil && len(at.partial) > 0 {
		at.err = fmt.Errorf("trace export ends mid-line")
	}
	if at.err == nil {
		at.endTrack()
	}
	if at.err != nil {
		return nil, at.err
	}
	return &at.a, nil
}

// Write implements io.Writer over the JSONL stream.
func (at *attributor) Write(b []byte) (int, error) {
	n := len(b)
	for at.err == nil {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			at.partial = append(at.partial, b...)
			break
		}
		line := b[:i]
		if len(at.partial) > 0 {
			line = append(at.partial, line...)
			at.partial = at.partial[:0]
		}
		at.err = at.event(line)
		b = b[i+1:]
	}
	return n, nil
}

// field returns the raw value following "key": in a JSONL event line.
func field(line []byte, key string) ([]byte, bool) {
	i := bytes.Index(line, []byte(`"`+key+`":`))
	if i < 0 {
		return nil, false
	}
	v := line[i+len(key)+3:]
	if len(v) > 0 && v[0] == '"' {
		end := bytes.IndexByte(v[1:], '"')
		if end < 0 {
			return nil, false
		}
		return v[1 : end+1], true
	}
	end := bytes.IndexAny(v, ",}")
	if end < 0 {
		return nil, false
	}
	return v[:end], true
}

// parseUS reads a "ts_us" value, printed with exactly three decimals,
// as integer nanoseconds.
func parseUS(v []byte) (int64, error) {
	s := string(v)
	dot := strings.IndexByte(s, '.')
	if dot < 0 || len(s)-dot != 4 {
		return 0, fmt.Errorf("timestamp %q: want three decimals", s)
	}
	us, err := strconv.ParseInt(s[:dot], 10, 64)
	if err != nil {
		return 0, err
	}
	frac, err := strconv.ParseInt(s[dot+1:], 10, 64)
	if err != nil {
		return 0, err
	}
	return us*1000 + frac, nil
}

func (at *attributor) event(line []byte) error {
	tidV, ok1 := field(line, "tid")
	ph, ok2 := field(line, "ph")
	nameV, ok3 := field(line, "name")
	tsV, ok4 := field(line, "ts_us")
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return fmt.Errorf("malformed trace event %q", line)
	}
	tid, err := strconv.ParseInt(string(tidV), 10, 64)
	if err != nil {
		return err
	}
	ts, err := parseUS(tsV)
	if err != nil {
		return err
	}
	if tid != at.tid {
		if at.endTrack(); at.err != nil {
			return at.err
		}
		at.tid, at.lastTS = tid, ts
	}
	if ts < at.lastTS {
		return fmt.Errorf("track %d: event at %d ns before the previous one at %d ns", tid, ts, at.lastTS)
	}
	at.lastTS = ts
	name := string(nameV)
	switch string(ph) {
	case "B":
		l := layerOf(name)
		if l == lVFS && len(at.stack) == 0 {
			at.a.ops = append(at.a.ops, opTrace{kind: strings.TrimPrefix(name, "posix.")})
			at.root = &at.a.ops[len(at.a.ops)-1]
		} else if l == lVFS {
			return fmt.Errorf("track %d: %s nested in %s", tid, name, at.stack[0].name)
		}
		if strings.HasPrefix(name, "2pc.") {
			at.twoPC++
		}
		at.stack = append(at.stack, openSpan{name: name, layer: l, start: ts})
	case "E":
		if len(at.stack) == 0 {
			return fmt.Errorf("track %d: end of %s with no open span", tid, name)
		}
		f := at.stack[len(at.stack)-1]
		at.stack = at.stack[:len(at.stack)-1]
		if f.name != name {
			return fmt.Errorf("track %d: end of %s closes %s", tid, name, f.name)
		}
		dur := ts - f.start
		if f.kids > dur {
			return fmt.Errorf("track %d: children of %s cover %d ns of its %d ns", tid, name, f.kids, dur)
		}
		if strings.HasPrefix(name, "2pc.") {
			at.twoPC--
			if at.root != nil && at.twoPC == 0 {
				at.root.twoPC += dur
			}
		}
		if n := len(at.stack); n > 0 {
			at.stack[n-1].kids += dur
		}
		switch {
		case at.root != nil:
			at.root.layers[f.layer] += dur - f.kids
			if len(at.stack) == 0 {
				at.root.dur = dur
				var sum int64
				for _, v := range at.root.layers {
					sum += v
				}
				if sum != dur {
					return fmt.Errorf("track %d: %s lasted %d ns but its layers sum to %d ns", tid, name, dur, sum)
				}
				at.root = nil
			}
		case name == "wal.flush" && f.start >= at.from:
			at.a.flushNS += dur
		}
	default:
		return fmt.Errorf("track %d: unknown phase %q", tid, ph)
	}
	return nil
}

// endTrack drops the spans a background proc left open when the run
// ended; an open measured call is an error.
func (at *attributor) endTrack() {
	if at.root != nil && at.err == nil {
		at.err = fmt.Errorf("track %d: measured call %s never ended", at.tid, at.stack[0].name)
	}
	at.stack, at.root, at.twoPC = at.stack[:0], nil, 0
}
