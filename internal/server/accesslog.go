package server

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// defaultAccessLogMaxBytes is the rotation threshold when the caller does
// not pick one: 64 MiB keeps roughly a million access lines on disk.
const defaultAccessLogMaxBytes = 64 << 20

// AccessLog writes one line per finished job as NDJSON: the job's
// envelope without its result, plus the client key. Its cache_wait_ms and
// solve_wait_ms account for the job's elapsed_ms up to scheduling slack,
// so a log line alone answers "where did this job's time go". File-backed
// logs rotate by size: once the current file would exceed maxBytes, it is renamed to <path>.1 (replacing any previous
// rotation) and a fresh file is started. A nil *AccessLog is a valid
// no-op receiver, so the server logs unconditionally.
type AccessLog struct {
	mu       sync.Mutex
	w        io.Writer // writer-backed (tests, stdout); no rotation
	path     string
	maxBytes int64
	f        *os.File
	size     int64
}

// OpenAccessLog opens (appending) or creates a file-backed access log at
// path, rotating at maxBytes (<= 0 means the 64 MiB default).
func OpenAccessLog(path string, maxBytes int64) (*AccessLog, error) {
	if maxBytes <= 0 {
		maxBytes = defaultAccessLogMaxBytes
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("server: access log: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("server: access log: %w", err)
	}
	return &AccessLog{path: path, maxBytes: maxBytes, f: f, size: st.Size()}, nil
}

// NewAccessLogWriter wraps an arbitrary writer (no rotation); used by
// tests and by callers logging to stdout/stderr.
func NewAccessLogWriter(w io.Writer) *AccessLog {
	return &AccessLog{w: w}
}

// Log appends one job's line. Errors are dropped: access logging is
// best-effort and must never fail a job.
func (l *AccessLog) Log(env JobEnvelope, client string) {
	if l == nil {
		return
	}
	line, err := json.Marshal(struct {
		JobEnvelope
		Client string `json:"client,omitempty"`
	}{env, client})
	if err != nil {
		return
	}
	line = append(line, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w != nil {
		_, _ = l.w.Write(line)
		return
	}
	if l.f == nil {
		return
	}
	if l.size+int64(len(line)) > l.maxBytes && l.size > 0 {
		l.rotateLocked()
	}
	if n, err := l.f.Write(line); err == nil {
		l.size += int64(n)
	}
}

// rotateLocked moves the current file to <path>.1 and starts a fresh one.
// On any failure it keeps writing to the old file rather than losing
// lines.
func (l *AccessLog) rotateLocked() {
	if err := l.f.Close(); err != nil {
		// The descriptor is gone either way; fall through to reopen.
		_ = err
	}
	_ = os.Rename(l.path, l.path+".1")
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		// Reopen the original so logging continues somewhere.
		f, err = os.OpenFile(l.path+".1", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			l.f = nil
			return
		}
	}
	l.f = f
	l.size = 0
}

// Close flushes and closes a file-backed log. Safe on nil and on
// writer-backed logs.
func (l *AccessLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
