// The study-options table: every `mercurialctl study` flag, bound to the StudyOptions field it
// sets, with its help text. A flag's default is its field's value in the defaults the flags are
// defined from, so no default is written twice. `study` parses its argv through the table, and
// `recover` re-parses the argv recorded in a journal's manifest through it.

#ifndef MERCURIAL_SRC_CORE_STUDY_FLAGS_H_
#define MERCURIAL_SRC_CORE_STUDY_FLAGS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/status.h"
#include "src/core/fleet_study.h"

namespace mercurial {

// The options `mercurialctl study` starts from: the StudyOptions defaults, except a
// 500-machine, one-year study at 25x the product mercurial rates, running 20 work units per
// core-day of 256-byte payloads on 8 shards.
StudyOptions CliStudyDefaults();

// Declares every study flag on `flags`, each defaulting to its field in `defaults`.
void DefineStudyOptionFlags(FlagSet& flags, StudyOptions defaults = CliStudyDefaults());

// Sets `*out` to CliStudyDefaults() with every study flag's parsed value applied. Returns
// INVALID_ARGUMENT for a value its field cannot hold: an int out of range, or a day count that
// is not finite or whose seconds overflow int64. Negative counts are refused by the flag parser.
// Range checks on the options themselves are StudyOptions::Validate()'s.
Status StudyOptionsFromFlags(const FlagSet& flags, StudyOptions* out);

// Sets the one field study flag `name` is bound to, from its value in `flags`, with the same
// checks as StudyOptionsFromFlags. For other commands that share a study flag's name: `flags`
// must define `name` with the type DefineStudyOptionFlags gives it.
Status ApplyStudyFlag(const FlagSet& flags, const std::string& name, StudyOptions* options);

// The journal manifest `mercurialctl study` records: its own argv, as a u32 count and one
// length-prefixed blob per argument — enough for `recover` to rebuild and re-run the exact
// invocation that wrote the journal.
std::vector<uint8_t> EncodeArgvManifest(int argc, const char* const* argv);

// Inverse of EncodeArgvManifest. Returns DATA_LOSS unless `bytes` is exactly one argv record:
// truncated, with trailing bytes, or with an argument holding a NUL byte (no C string does).
Status DecodeArgvManifest(const std::vector<uint8_t>& bytes, std::vector<std::string>* out);

}  // namespace mercurial

#endif  // MERCURIAL_SRC_CORE_STUDY_FLAGS_H_
