package obs

import (
	"context"
	"log/slog"
)

// nopHandler drops every record before it is formatted: Enabled reports
// false, so slog never builds the record at all.
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }

var nopLogger = slog.New(nopHandler{})

// NopLogger returns the shared silent logger, the default wherever a
// component is configured without one.
func NopLogger() *slog.Logger { return nopLogger }
