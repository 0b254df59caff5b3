// Package treespec defines a small line-oriented text format for
// describing naming trees, used by the command-line tools to build
// exported trees and to snapshot existing ones.
//
// Format (one directive per line, '#' starts a comment):
//
//	dir   /usr/bin                    create a directory (and parents)
//	file  /usr/bin/ls "#!ls"          create a file with quoted content
//	embed /doc/main "chapters/ch1"    append an embedded name to a file
//	link  /mnt/shared /usr            bind an additional name for the
//	                                  entity at an existing path
//
// Every path, and every embedded name, has at least one component, so
// "dir /" and "link /x /" are malformed. Build and Split read lines through
// one parser and refuse the same ones.
//
// Dump serializes a tree back into the format; Parse(Dump(t)) reproduces
// the tree's structure, file contents, embedded names and sharing.
package treespec
