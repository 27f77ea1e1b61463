package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
)

// This file holds the trace IDs the serving path stamps on jobs: W3C-style
// IDs parsed from request headers (or generated) and rendered back as
// traceparent values. A job's trace itself is its flight-recorder ring,
// served as a Recorder.Dump.

// NewTraceID returns a fresh random 16-byte trace ID as 32 lowercase hex
// characters — the W3C trace-context trace-id format.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on the platforms we run on; fall back to
		// a fixed-but-valid ID rather than panicking in a request handler.
		return "00000000000000000000000000000001"
	}
	id := hex.EncodeToString(b[:])
	if id == strings.Repeat("0", 32) {
		id = "00000000000000000000000000000001"
	}
	return id
}

// isHex reports whether s is non-empty lowercase-insensitive hex.
func isHex(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= '0' && r <= '9', r >= 'a' && r <= 'f', r >= 'A' && r <= 'F':
		default:
			return false
		}
	}
	return true
}

// ParseTraceHeader extracts a trace ID from a client-supplied header
// value: either a bare hex token (the X-Transit-Trace convention, up to
// 32 chars) or a W3C traceparent ("00-<32 hex>-<16 hex>-<2 hex>"). The
// returned ID is canonical lowercase. ok is false for malformed values
// and the all-zero ID, in which case the caller should generate one.
func ParseTraceHeader(v string) (string, bool) {
	v = strings.TrimSpace(v)
	if parts := strings.Split(v, "-"); len(parts) == 4 &&
		len(parts[0]) == 2 && len(parts[1]) == 32 && len(parts[2]) == 16 && len(parts[3]) == 2 &&
		isHex(parts[0]) && isHex(parts[1]) && isHex(parts[2]) && isHex(parts[3]) {
		v = parts[1]
	}
	if !isHex(v) || len(v) > 32 {
		return "", false
	}
	id := strings.ToLower(v)
	if strings.Trim(id, "0") == "" {
		return "", false
	}
	return id, true
}

// FormatTraceparent renders a trace ID as a W3C traceparent value for
// response headers, padding short custom IDs to 32 hex chars. The parent
// span-id field is synthesized from the job's root span ID.
func FormatTraceparent(traceID string, rootSpan uint64) string {
	if len(traceID) < 32 {
		traceID = strings.Repeat("0", 32-len(traceID)) + traceID
	}
	return fmt.Sprintf("00-%s-%016x-01", traceID, rootSpan)
}
