// Package fixture is the module the dead-code gate's own test scans.
package fixture

import "fixture/internal/lib"

// Thing is public API, so its methods count as live.
type Thing = lib.Thing

// NewOther is root API; it names lib.Other but selects none of its methods.
func NewOther() *lib.Other { return &lib.Other{} }
