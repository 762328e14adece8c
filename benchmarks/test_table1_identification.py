"""Table I: MPI-implementation identification.

Regenerates the identification table and benchmarks the Table I scheme
over the full test set, asserting the paper's "100% accurate at assessing
whether a matching MPI implementation was available".
"""

from repro.core.description import identify_mpi_implementation
from repro.elf import parse_elf
from repro.evaluation.tables import render_table1


def test_table1_render():
    print()
    print(render_table1())


def test_identification_bench(benchmark, experiment_result):
    corpus = experiment_result.corpus
    needed_lists = [parse_elf(b.image).dynamic.needed
                    for b in corpus.binaries]
    expected = [b.stack_spec.kind.value for b in corpus.binaries]

    def identify_all():
        return [identify_mpi_implementation(needed)
                for needed in needed_lists]

    identified = benchmark(identify_all)
    correct = sum(1 for got, want in zip(identified, expected)
                  if got == want)
    accuracy = correct / len(expected)
    print(f"\nMPI identification accuracy over "
          f"{len(expected)} binaries: {accuracy:.1%}")
    assert accuracy == 1.0
