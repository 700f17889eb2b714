// Package b has no API of its own; its test file uses package a.
package b
