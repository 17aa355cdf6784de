// Package pkg names Markdown files in its comments: README.md and
// docs/GUIDE.md resolve at the root, NOTES.md and ../README.md beside
// this file, and https://example.com/REMOTE.md is a URL.
package pkg

// Name is a string, not a comment, so its value is not checked.
const Name = "GONE.md"

/*
A block comment names MISSING.md on its second line.
*/

// docs/ABSENT.md is missing too.
var _ = Name
