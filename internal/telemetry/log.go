package telemetry

// log.go is the structured-logging half of the observability layer:
// one log/slog configuration shared by all binaries (-log-level,
// -log-format), with a handler wrapper that stamps records written
// inside a traced region (ContextWithSpan) with their trace_id and
// span_id — the log↔trace correlation key. Logs go to stderr; stdout
// stays reserved for results, which is what the distributed
// byte-identity suite compares.

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// ParseLogLevel maps a -log-level flag value to a slog.Level.
func ParseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("telemetry: unknown log level %q (want debug, info, warn, or error)", s)
}

// NewLogger builds a trace-aware slog.Logger writing to w. format is
// "text" (the human default) or "json" (one object per line, for
// fleet log collection).
func NewLogger(w io.Writer, level slog.Level, format string) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "text", "":
		h = slog.NewTextHandler(w, opts)
	case "json":
		h = slog.NewJSONHandler(w, opts)
	default:
		return nil, fmt.Errorf("telemetry: unknown log format %q (want text or json)", format)
	}
	return slog.New(&traceHandler{inner: h}), nil
}

// InitLogging parses the -log-level/-log-format flag values, installs
// a logger writing to w (stderr, in a binary) as slog's process
// default, and returns it.
func InitLogging(w io.Writer, level, format string) (*slog.Logger, error) {
	lv, err := ParseLogLevel(level)
	if err != nil {
		return nil, err
	}
	lg, err := NewLogger(w, lv, format)
	if err != nil {
		return nil, err
	}
	slog.SetDefault(lg)
	return lg, nil
}

// traceHandler decorates every record whose context carries a span
// (ContextWithSpan) with trace_id/span_id attributes, then delegates.
type traceHandler struct {
	inner slog.Handler
}

func (h *traceHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.inner.Enabled(ctx, level)
}

func (h *traceHandler) Handle(ctx context.Context, r slog.Record) error {
	if sc, ok := SpanContextFrom(ctx); ok {
		r = r.Clone()
		r.AddAttrs(
			slog.String("trace_id", sc.TraceID),
			slog.String("span_id", sc.SpanID),
		)
	}
	return h.inner.Handle(ctx, r)
}

func (h *traceHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &traceHandler{inner: h.inner.WithAttrs(attrs)}
}

func (h *traceHandler) WithGroup(name string) slog.Handler {
	return &traceHandler{inner: h.inner.WithGroup(name)}
}
