from .harness import main

raise SystemExit(main())
