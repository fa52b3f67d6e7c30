package obs

import (
	"io"
	"log/slog"
	"os"
	"strings"
)

// LogEnv is the environment variable configuring the run logger of the
// commands. It holds comma-separated tokens: a level (debug, info, warn,
// error) and/or "json" to switch to JSON output.
//
//	HP_LOG=debug hpserve
//	HP_LOG=json,info hpsched ...
const LogEnv = "HP_LOG"

// NewLogger builds the structured run logger shared by the commands:
// text (or JSON) records on w at Info level, or at the level the HP_LOG
// environment variable names. A nil w discards everything.
func NewLogger(w io.Writer) *slog.Logger {
	if w == nil {
		w = io.Discard
	}
	level := slog.LevelInfo
	json := false
	for _, tok := range strings.Split(os.Getenv(LogEnv), ",") {
		switch strings.ToLower(strings.TrimSpace(tok)) {
		case "debug":
			level = slog.LevelDebug
		case "info":
			level = slog.LevelInfo
		case "warn", "warning":
			level = slog.LevelWarn
		case "error":
			level = slog.LevelError
		case "json":
			json = true
		}
	}
	opts := &slog.HandlerOptions{Level: level}
	if json {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}
