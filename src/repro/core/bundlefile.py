"""Source-bundle serialization.

"The output from a source phase is bundled for the user and must be
copied to each target site if it is to be used in a target phase"
(Section V).  This module makes that concrete: a bundle serializes to a
single gzipped POSIX tar archive containing

* ``MANIFEST.json`` -- the binary description, per-library records
  (each library's description in the binary's own codec),
  guaranteed-environment description and metadata;
* ``libs/<soname>`` -- the gathered library copies (genuine ELF bytes);
* ``hello/<language>`` -- the compiled hello-world probes.

The archive round-trips losslessly (:func:`pack_bundle` /
:func:`unpack_bundle`), can be written into a site's virtual filesystem
for the user to ``scp`` onward, and is introspectable with any real tar
tool.
"""

from __future__ import annotations

import io
import json
import tarfile
from typing import Optional

from repro.core.bundle import HelloPrograms, SourceBundle
from repro.core.description import BinaryDescription, LibraryRecord
from repro.core.discovery import EnvironmentDescription

#: Version of the archive layout.  Format 2 describes each library with
#: the binary's own description codec; format-1 archives are refused.
FORMAT_VERSION = 2


class BundleFormatError(ValueError):
    """The archive is not a valid FEAM bundle."""


# -- JSON codecs for the dataclass tree ---------------------------------------

def _description_to_json(d: BinaryDescription) -> dict:
    return {
        "path": d.path,
        "file_format": d.file_format,
        "isa_name": d.isa_name,
        "bits": d.bits,
        "is_dynamic": d.is_dynamic,
        "is_shared_library": d.is_shared_library,
        "soname": d.soname,
        "library_version": list(d.library_version),
        "needed": list(d.needed),
        "version_references": [list(ref) for ref in d.version_references],
        "version_definitions": list(d.version_definitions),
        "required_glibc": d.required_glibc,
        "comment": list(d.comment),
        "mpi_implementation": d.mpi_implementation,
        "build_compiler_hint": d.build_compiler_hint,
        "build_libc_hint": d.build_libc_hint,
        "gathered_via": d.gathered_via,
    }


def _description_from_json(data: dict) -> BinaryDescription:
    return BinaryDescription(
        path=data["path"],
        file_format=data["file_format"],
        isa_name=data["isa_name"],
        bits=data["bits"],
        is_dynamic=data["is_dynamic"],
        is_shared_library=data["is_shared_library"],
        soname=data["soname"],
        library_version=tuple(data["library_version"]),
        needed=tuple(data["needed"]),
        version_references=tuple(
            (ref[0], ref[1]) for ref in data["version_references"]),
        version_definitions=tuple(data["version_definitions"]),
        required_glibc=data["required_glibc"],
        comment=tuple(data["comment"]),
        mpi_implementation=data["mpi_implementation"],
        build_compiler_hint=data["build_compiler_hint"],
        build_libc_hint=data["build_libc_hint"],
        gathered_via=data["gathered_via"],
    )


def _record_to_json(r: LibraryRecord) -> dict:
    return {
        "soname": r.soname,
        "located_path": r.located_path,
        "description": (_description_to_json(r.description)
                        if r.description is not None else None),
        "copied": r.copied,
    }


def _record_from_json(data: dict, image: Optional[bytes]) -> LibraryRecord:
    return LibraryRecord(
        soname=data["soname"],
        located_path=data["located_path"],
        description=(None if data["description"] is None
                     else _description_from_json(data["description"])),
        image=image,
    )


# -- pack / unpack --------------------------------------------------------------

def pack_bundle(bundle: SourceBundle) -> bytes:
    """Serialize *bundle* to a gzipped tar archive.

    The archive is where library copies leave the process, so a copy
    held by image identity is synthesised here, byte-identical to the
    file it was gathered from.  :func:`unpack_bundle` yields bytes.
    """
    manifest = {
        "format_version": FORMAT_VERSION,
        "created_at": bundle.created_at,
        "description": _description_to_json(bundle.description),
        "libraries": [_record_to_json(r) for r in bundle.libraries],
        "guaranteed_environment": bundle.guaranteed_environment.to_dict(),
        "hello": ({"stack_label": bundle.hello.stack_label,
                   "compiled_at": bundle.hello.compiled_at,
                   "languages": sorted(bundle.hello.images)}
                  if bundle.hello is not None else None),
    }
    import gzip

    buffer = io.BytesIO()
    # mtime=0 in the gzip header keeps archives byte-deterministic.
    with gzip.GzipFile(fileobj=buffer, mode="wb", mtime=0) as gz:
        with tarfile.open(fileobj=gz, mode="w") as tar:
            def add(name: str, data: bytes) -> None:
                info = tarfile.TarInfo(name)
                info.size = len(data)
                info.mtime = 0  # deterministic archives
                tar.addfile(info, io.BytesIO(data))

            add("MANIFEST.json",
                json.dumps(manifest, indent=2, sort_keys=True).encode())
            for record in bundle.libraries:
                if record.copied:
                    add(f"libs/{record.soname}", record.copy_data())
            if bundle.hello is not None:
                for language, image in sorted(bundle.hello.images.items()):
                    add(f"hello/{language}", image)
    return buffer.getvalue()


def _decoded(where: str, decode, *args):
    """``decode(*args)``; a malformed manifest part is a
    :class:`BundleFormatError` naming *where* it is wrong."""
    try:
        return decode(*args)
    except BundleFormatError:
        raise
    except KeyError as exc:
        raise BundleFormatError(
            f"manifest {where}: missing field {exc}") from None
    except (TypeError, ValueError, AttributeError, IndexError) as exc:
        raise BundleFormatError(f"manifest {where}: {exc}") from None


def _libraries_from_json(entries: list,
                         members: dict) -> tuple[LibraryRecord, ...]:
    libraries = []
    for data in entries:
        image = None
        if data.get("copied"):
            image = members.get(f"libs/{data['soname']}")
            if image is None:
                raise BundleFormatError(
                    f"manifest lists a copy of {data['soname']} "
                    f"but the archive member is missing")
        libraries.append(_record_from_json(data, image))
    return tuple(libraries)


def _hello_from_json(data: Optional[dict],
                     members: dict) -> Optional[HelloPrograms]:
    if data is None:
        return None
    images = {}
    for language in data["languages"]:
        image = members.get(f"hello/{language}")
        if image is None:
            raise BundleFormatError(
                f"manifest lists a {language} hello probe but the "
                f"archive member is missing")
        images[language] = image
    return HelloPrograms(images=images, stack_label=data["stack_label"],
                         compiled_at=data["compiled_at"])


def unpack_bundle(data: bytes) -> SourceBundle:
    """Deserialize an archive produced by :func:`pack_bundle`.

    Raises :class:`BundleFormatError` for anything that is not a whole,
    well-formed bundle: bundles arrive from outside the program.
    """
    try:
        buffer = io.BytesIO(data)
        with tarfile.open(fileobj=buffer, mode="r:gz") as tar:
            members = {m.name: tar.extractfile(m).read()
                       for m in tar.getmembers() if m.isfile()}
    except (tarfile.TarError, OSError) as exc:
        raise BundleFormatError(f"not a FEAM bundle archive: {exc}") from exc
    if "MANIFEST.json" not in members:
        raise BundleFormatError("archive has no MANIFEST.json")
    try:
        manifest = json.loads(members["MANIFEST.json"])
    except json.JSONDecodeError as exc:
        raise BundleFormatError(f"corrupt manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise BundleFormatError("manifest is not a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise BundleFormatError(
            f"unsupported bundle format version: {version!r}")
    for field in ("libraries", "description", "guaranteed_environment",
                  "created_at"):
        if field not in manifest:
            raise BundleFormatError(f"manifest has no {field!r}")
    return SourceBundle(
        description=_decoded("description", _description_from_json,
                             manifest["description"]),
        libraries=_decoded("libraries", _libraries_from_json,
                           manifest["libraries"], members),
        hello=_decoded("hello", _hello_from_json, manifest.get("hello"),
                       members),
        guaranteed_environment=_decoded(
            "guaranteed_environment", EnvironmentDescription.from_dict,
            manifest["guaranteed_environment"]),
        created_at=manifest["created_at"],
    )
