"""The help and usage-error output of the command line: stdout, stderr and
exit code of each argv, recorded at 80 columns before the parser gave
arguments only to the subcommand that argv names.  ``test_cli`` compares."""

USAGE = {
    ('--help',): (
        'usage: gogmagog [-h]\n'
        '                {enumerate,convert,stats,dist,poset,poset-check,verify-all}\n'
        '                ...\n'
        '\n'
        'Matrices, plane partitions, triangles: bijections, statistics, and orders.\n'
        '\n'
        'positional arguments:\n'
        '  {enumerate,convert,stats,dist,poset,poset-check,verify-all}\n'
        '    enumerate           stream a family as JSON lines\n'
        '    convert             convert an object between families\n'
        '    stats               statistics of a single object\n'
        '    dist                distribution of a statistic over a family\n'
        '    poset               emit a named poset as DOT or JSON\n'
        '    poset-check         verify one structural claim\n'
        '    verify-all          run the whole claim suite up to n\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n',
        "",
        0,
    ),
    (): (
        "",
        'usage: gogmagog [-h]\n'
        '                {enumerate,convert,stats,dist,poset,poset-check,verify-all}\n'
        '                ...\n'
        'gogmagog: error: the following arguments are required: command\n',
        2,
    ),
    ('enumerate', '--help'): (
        'usage: gogmagog enumerate [-h] --family\n'
        '                          {asm,monotone,magog,boolean,nilp,tsscpp,permutation,permutation-boolean}\n'
        '                          --n N [--count-only] [--jsonl]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --family {asm,monotone,magog,boolean,nilp,tsscpp,permutation,permutation-boolean}\n'
        '  --n N\n'
        '  --count-only\n'
        '  --jsonl               JSON lines (the default)\n',
        "",
        0,
    ),
    ('convert', '--help'): (
        'usage: gogmagog convert [-h] --from\n'
        '                        {asm,boolean,boolean_triangle,fundamental,fundamental_domain,magog,magog_triangle,monotone,monotone_triangle,nilp,nilp_nest,permutation,plane_partition,tsscpp}\n'
        '                        --to\n'
        '                        {asm,boolean,boolean_triangle,fundamental,fundamental_domain,magog,magog_triangle,monotone,monotone_triangle,nilp,nilp_nest,permutation,plane_partition,tsscpp}\n'
        '                        value\n'
        '\n'
        'positional arguments:\n'
        '  value                 object JSON, or one-line notation for permutations\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --from {asm,boolean,boolean_triangle,fundamental,fundamental_domain,magog,magog_triangle,monotone,monotone_triangle,nilp,nilp_nest,permutation,plane_partition,tsscpp}\n'
        '  --to {asm,boolean,boolean_triangle,fundamental,fundamental_domain,magog,magog_triangle,monotone,monotone_triangle,nilp,nilp_nest,permutation,plane_partition,tsscpp}\n',
        "",
        0,
    ),
    ('stats', '--help'): (
        'usage: gogmagog stats [-h]\n'
        '                      [--kind {asm,boolean,boolean_triangle,fundamental,fundamental_domain,magog,magog_triangle,monotone,monotone_triangle,nilp,nilp_nest,permutation,plane_partition,tsscpp}]\n'
        '                      value\n'
        '\n'
        'positional arguments:\n'
        '  value\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --kind {asm,boolean,boolean_triangle,fundamental,fundamental_domain,magog,magog_triangle,monotone,monotone_triangle,nilp,nilp_nest,permutation,plane_partition,tsscpp}\n',
        "",
        0,
    ),
    ('dist', '--help'): (
        'usage: gogmagog dist [-h] --family\n'
        '                     {asm,monotone,magog,boolean,nilp,tsscpp,permutation,permutation-boolean}\n'
        '                     --n N --statistic\n'
        '                     {inversions,last_row_zeros,negative_ones,strict_diagonal_entries,zero_then_one,zeros}\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --family {asm,monotone,magog,boolean,nilp,tsscpp,permutation,permutation-boolean}\n'
        '  --n N\n'
        '  --statistic {inversions,last_row_zeros,negative_ones,strict_diagonal_entries,zero_then_one,zeros}\n',
        "",
        0,
    ),
    ('poset', '--help'): (
        'usage: gogmagog poset [-h] --name\n'
        '                      {An,JPn,JQn,Pn,Qn,TBool,TBoolPerm,Tn,TnPerm,catalan,chains,strong,tamari,weak}\n'
        '                      --n N [--out {dot,json}]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --name {An,JPn,JQn,Pn,Qn,TBool,TBoolPerm,Tn,TnPerm,catalan,chains,strong,tamari,weak}\n'
        '  --n N\n'
        '  --out {dot,json}\n',
        "",
        0,
    ),
    ('poset-check', '--help'): (
        'usage: gogmagog poset-check [-h] --claim\n'
        '                            {cor4.16,cor4.17,lemma4.8,prop-nonlattice,thm4.12,thm4.2,thm4.4,thm4.6,thm4.9}\n'
        '                            --n N\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --claim {cor4.16,cor4.17,lemma4.8,prop-nonlattice,thm4.12,thm4.2,thm4.4,thm4.6,thm4.9}\n'
        '  --n N\n',
        "",
        0,
    ),
    ('verify-all', '--help'): (
        'usage: gogmagog verify-all [-h] --n N\n'
        '\n'
        'options:\n'
        '  -h, --help  show this help message and exit\n'
        '  --n N\n',
        "",
        0,
    ),
    ('nope',): (
        "",
        'usage: gogmagog [-h]\n'
        '                {enumerate,convert,stats,dist,poset,poset-check,verify-all}\n'
        '                ...\n'
        "gogmagog: error: argument command: invalid choice: 'nope' (choose from 'enumerate', 'convert', 'stats', 'dist', 'poset', 'poset-check', 'verify-all')\n",
        2,
    ),
    ('enumerate', '--family', 'nope', '--n', '3'): (
        "",
        'usage: gogmagog enumerate [-h] --family\n'
        '                          {asm,monotone,magog,boolean,nilp,tsscpp,permutation,permutation-boolean}\n'
        '                          --n N [--count-only] [--jsonl]\n'
        "gogmagog enumerate: error: argument --family: invalid choice: 'nope' (choose from 'asm', 'monotone', 'magog', 'boolean', 'nilp', 'tsscpp', 'permutation', 'permutation-boolean')\n",
        2,
    ),
    ('dist', '--family', 'asm', '--n', '3', '--statistic', 'nope'): (
        "",
        'usage: gogmagog dist [-h] --family\n'
        '                     {asm,monotone,magog,boolean,nilp,tsscpp,permutation,permutation-boolean}\n'
        '                     --n N --statistic\n'
        '                     {inversions,last_row_zeros,negative_ones,strict_diagonal_entries,zero_then_one,zeros}\n'
        "gogmagog dist: error: argument --statistic: invalid choice: 'nope' (choose from 'inversions', 'last_row_zeros', 'negative_ones', 'strict_diagonal_entries', 'zero_then_one', 'zeros')\n",
        2,
    ),
    ('poset-check', '--claim', 'nope', '--n', '3'): (
        "",
        'usage: gogmagog poset-check [-h] --claim\n'
        '                            {cor4.16,cor4.17,lemma4.8,prop-nonlattice,thm4.12,thm4.2,thm4.4,thm4.6,thm4.9}\n'
        '                            --n N\n'
        "gogmagog poset-check: error: argument --claim: invalid choice: 'nope' (choose from 'cor4.16', 'cor4.17', 'lemma4.8', 'prop-nonlattice', 'thm4.12', 'thm4.2', 'thm4.4', 'thm4.6', 'thm4.9')\n",
        2,
    ),
    ('poset', '--name', 'nope', '--n', '3'): (
        "",
        'usage: gogmagog poset [-h] --name\n'
        '                      {An,JPn,JQn,Pn,Qn,TBool,TBoolPerm,Tn,TnPerm,catalan,chains,strong,tamari,weak}\n'
        '                      --n N [--out {dot,json}]\n'
        "gogmagog poset: error: argument --name: invalid choice: 'nope' (choose from 'An', 'JPn', 'JQn', 'Pn', 'Qn', 'TBool', 'TBoolPerm', 'Tn', 'TnPerm', 'catalan', 'chains', 'strong', 'tamari', 'weak')\n",
        2,
    ),
    ('stats', '--kind', 'nope', '1'): (
        "",
        'usage: gogmagog stats [-h]\n'
        '                      [--kind {asm,boolean,boolean_triangle,fundamental,fundamental_domain,magog,magog_triangle,monotone,monotone_triangle,nilp,nilp_nest,permutation,plane_partition,tsscpp}]\n'
        '                      value\n'
        "gogmagog stats: error: argument --kind: invalid choice: 'nope' (choose from 'asm', 'boolean', 'boolean_triangle', 'fundamental', 'fundamental_domain', 'magog', 'magog_triangle', 'monotone', 'monotone_triangle', 'nilp', 'nilp_nest', 'permutation', 'plane_partition', 'tsscpp')\n",
        2,
    ),
    ('enumerate', '--family', 'asm'): (
        "",
        'usage: gogmagog enumerate [-h] --family\n'
        '                          {asm,monotone,magog,boolean,nilp,tsscpp,permutation,permutation-boolean}\n'
        '                          --n N [--count-only] [--jsonl]\n'
        'gogmagog enumerate: error: the following arguments are required: --n\n',
        2,
    ),
    ('dist', '--family', 'asm', '--statistic', 'zeros'): (
        "",
        'usage: gogmagog dist [-h] --family\n'
        '                     {asm,monotone,magog,boolean,nilp,tsscpp,permutation,permutation-boolean}\n'
        '                     --n N --statistic\n'
        '                     {inversions,last_row_zeros,negative_ones,strict_diagonal_entries,zero_then_one,zeros}\n'
        'gogmagog dist: error: the following arguments are required: --n\n',
        2,
    ),
    ('poset', '--name', 'An'): (
        "",
        'usage: gogmagog poset [-h] --name\n'
        '                      {An,JPn,JQn,Pn,Qn,TBool,TBoolPerm,Tn,TnPerm,catalan,chains,strong,tamari,weak}\n'
        '                      --n N [--out {dot,json}]\n'
        'gogmagog poset: error: the following arguments are required: --n\n',
        2,
    ),
    ('poset-check', '--claim', 'thm4.2'): (
        "",
        'usage: gogmagog poset-check [-h] --claim\n'
        '                            {cor4.16,cor4.17,lemma4.8,prop-nonlattice,thm4.12,thm4.2,thm4.4,thm4.6,thm4.9}\n'
        '                            --n N\n'
        'gogmagog poset-check: error: the following arguments are required: --n\n',
        2,
    ),
    ('verify-all',): (
        "",
        'usage: gogmagog verify-all [-h] --n N\n'
        'gogmagog verify-all: error: the following arguments are required: --n\n',
        2,
    ),
}
