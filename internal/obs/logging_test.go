package obs

import (
	"context"
	"log/slog"
	"strings"
	"testing"
)

func TestNewLoggerLevels(t *testing.T) {
	t.Setenv(LogEnv, "")
	var b strings.Builder
	l := NewLogger(&b)
	l.Debug("hidden")
	l.Info("shown", "k", "v")
	out := b.String()
	if strings.Contains(out, "hidden") {
		t.Error("debug shown at info level")
	}
	if !strings.Contains(out, "shown") || !strings.Contains(out, "k=v") {
		t.Errorf("info record missing: %q", out)
	}
}

func TestNewLoggerEnv(t *testing.T) {
	t.Setenv(LogEnv, "json,debug")
	var b strings.Builder
	l := NewLogger(&b)
	l.Debug("dbg", "n", 1)
	out := b.String()
	if !strings.Contains(out, `"msg":"dbg"`) {
		t.Errorf("HP_LOG=json,debug not honored: %q", out)
	}

	t.Setenv(LogEnv, "error")
	if !NewLogger(nil).Enabled(context.Background(), slog.LevelError) {
		t.Error("error level not enabled")
	}
	if NewLogger(nil).Enabled(context.Background(), slog.LevelInfo) {
		t.Error("HP_LOG=error should disable info")
	}
}
