package blockproc

// RandomDirty lets the external tests, which may import internal/oracle,
// draw the same random collections as the package's own tests.
var RandomDirty = randomDirty
