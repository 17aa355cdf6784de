// Package fix is the fixture module's root package: its exported names
// are roots, its unexported ones are not.
package fix

// Version is a root, and it reaches version.
func Version() string { return version }

const version = "1"

// internalOnly is no root and nothing calls it.
func internalOnly() {}
