package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime/debug"
	"sync"

	"routeconv/internal/core"
)

// moduleVersion resolves, once, the version tag mixed into every cell key:
// the main module's version plus the VCS revision when the binary was
// stamped with one. Rebuilding at a new revision therefore invalidates the
// whole cache — simulation results are only comparable within one version
// of the simulator.
var moduleVersion = sync.OnceValue(func() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	v := info.Main.Version
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			v += "+" + s.Value
		}
	}
	if v == "" {
		v = "unknown"
	}
	return v
})

// Version reports the module version string mixed into cell keys (and
// recorded in sweep manifests).
func Version() string { return moduleVersion() }

// CellKey returns the cell's content-addressed cache key: a SHA-256 over
// the config's canonical rendering and the module version, in hex. Invalid
// configs, and configs with a Factory override (uncacheable), return an
// error.
func CellKey(cfg *core.Config) (string, error) {
	return CellKeyAt(cfg, Version())
}

// CellKeyAt is CellKey at an explicit version string; tests use it to pin
// golden keys independent of the build.
func CellKeyAt(cfg *core.Config, version string) (string, error) {
	canon, err := cfg.CanonicalString()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(canon))
	h.Write([]byte{0})
	h.Write([]byte(version))
	return hex.EncodeToString(h.Sum(nil)), nil
}
